//! Criterion microbenchmarks for the hot kernels: k-mer extraction,
//! owner hashing, the sorting substrate, end-to-end threaded counting,
//! and point lookups in a loaded serve shard.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dakc_io::{generate_genome, simulate_reads, GenomeSpec, ReadSimConfig};
use dakc_kmer::{kmers_of_read, owner_pe, CanonicalMode, KmerWord};
use dakc_serve::{encode_shard, Shard};
use dakc_sort::{hybrid_sort, lsd_radix_sort, msd_radix_sort, parallel_radix_sort, quicksort};

fn reads(n: usize) -> dakc_io::ReadSet {
    let genome = generate_genome(&GenomeSpec { bases: 200_000, repeats: None }, 1);
    simulate_reads(&genome, &ReadSimConfig::art_like(n), 1)
}

fn xorshift_vec(n: usize, mut x: u64) -> Vec<u64> {
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect()
}

fn bench_extraction(c: &mut Criterion) {
    let rs = reads(2_000);
    let bases = rs.total_bases() as u64;
    let mut g = c.benchmark_group("extraction");
    g.throughput(Throughput::Bytes(bases));
    for k in [15usize, 31] {
        g.bench_with_input(BenchmarkId::new("forward_u64", k), &k, |b, &k| {
            b.iter(|| {
                let mut acc = 0u64;
                for r in rs.iter() {
                    for w in kmers_of_read::<u64>(r, k, CanonicalMode::Forward) {
                        acc ^= w;
                    }
                }
                black_box(acc)
            })
        });
        g.bench_with_input(BenchmarkId::new("canonical_u64", k), &k, |b, &k| {
            b.iter(|| {
                let mut acc = 0u64;
                for r in rs.iter() {
                    for w in kmers_of_read::<u64>(r, k, CanonicalMode::Canonical) {
                        acc ^= w;
                    }
                }
                black_box(acc)
            })
        });
    }
    g.bench_function("forward_u128_k41", |b| {
        b.iter(|| {
            let mut acc = 0u128;
            for r in rs.iter() {
                for w in kmers_of_read::<u128>(r, 41, CanonicalMode::Forward) {
                    acc ^= w;
                }
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_owner_hash(c: &mut Criterion) {
    let kmers = xorshift_vec(100_000, 7);
    let mut g = c.benchmark_group("owner_pe");
    g.throughput(Throughput::Elements(kmers.len() as u64));
    for p in [48usize, 6144] {
        g.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            b.iter(|| {
                let mut acc = 0usize;
                for &w in &kmers {
                    acc = acc.wrapping_add(owner_pe(w, p));
                }
                black_box(acc)
            })
        });
    }
    g.finish();
}

fn bench_sorts(c: &mut Criterion) {
    let n = 1 << 17;
    let data = xorshift_vec(n, 42);
    // k = 31 k-mers occupy 62 bits; mask to be representative.
    let data: Vec<u64> = data.into_iter().map(|x| x & u64::mask(31)).collect();

    let mut g = c.benchmark_group("sort_128k_kmers");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("lsd_radix", |b| {
        b.iter(|| {
            let mut v = data.clone();
            lsd_radix_sort(&mut v);
            black_box(v.len())
        })
    });
    g.bench_function("msd_radix", |b| {
        b.iter(|| {
            let mut v = data.clone();
            msd_radix_sort(&mut v);
            black_box(v.len())
        })
    });
    g.bench_function("ska_hybrid", |b| {
        b.iter(|| {
            let mut v = data.clone();
            hybrid_sort(&mut v);
            black_box(v.len())
        })
    });
    g.bench_function("quicksort", |b| {
        b.iter(|| {
            let mut v = data.clone();
            quicksort(&mut v);
            black_box(v.len())
        })
    });
    g.bench_function("std_unstable", |b| {
        b.iter(|| {
            let mut v = data.clone();
            v.sort_unstable();
            black_box(v.len())
        })
    });
    g.bench_function("parallel_radix_4t", |b| {
        b.iter(|| {
            let mut v = data.clone();
            parallel_radix_sort(&mut v, 4);
            black_box(v.len())
        })
    });
    g.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let rs = reads(4_000);
    let kmers = rs.total_kmers(31) as u64;
    let mut g = c.benchmark_group("count_threaded");
    g.sample_size(10);
    g.throughput(Throughput::Elements(kmers));
    for t in [1usize, 4] {
        g.bench_with_input(BenchmarkId::new("dakc", t), &t, |b, &t| {
            b.iter(|| {
                black_box(
                    dakc::count_kmers_threaded::<u64>(&rs, 31, CanonicalMode::Forward, t, None)
                        .counts
                        .len(),
                )
            })
        });
    }
    g.bench_function("kmc3_4t", |b| {
        b.iter(|| {
            black_box(
                dakc_baselines::count_kmers_kmc3::<u64>(
                    &rs,
                    &dakc_baselines::Kmc3Config::defaults(31, 4),
                )
                .counts
                .len(),
            )
        })
    });
    g.finish();
}

fn bench_shard_get(c: &mut Criterion) {
    // A ~500k-record k = 31 shard counted from reads, queried with the
    // k-mers of fresh reads off the same genome: mostly hits, plus the
    // misses sequencing errors make in either read set.
    let genome = generate_genome(&GenomeSpec { bases: 400_000, repeats: None }, 3);
    let built = simulate_reads(&genome, &ReadSimConfig::art_like(11_000), 3);
    let table =
        dakc_baselines::count_kmers_serial::<u64>(&built, 31, CanonicalMode::Forward, false).counts;
    let shard: Shard<u64> =
        Shard::from_bytes(&encode_shard(&table, 31, false, 0, 1)).expect("valid shard");
    let queries: Vec<u64> = simulate_reads(&genome, &ReadSimConfig::art_like(2_000), 4)
        .iter()
        .flat_map(|r| kmers_of_read::<u64>(r, 31, CanonicalMode::Forward))
        .collect();
    eprintln!(
        "shard_get: {} records at {:.2} B/record in memory, {} queries",
        shard.len(),
        shard.heap_bytes() as f64 / shard.len() as f64,
        queries.len()
    );
    let mut g = c.benchmark_group("shard_get");
    g.throughput(Throughput::Elements(queries.len() as u64));
    g.bench_function(format!("k31_{}_records", shard.len()), |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for &q in &queries {
                hits += u64::from(shard.get(q).is_some());
            }
            black_box(hits)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_extraction,
    bench_owner_hash,
    bench_sorts,
    bench_end_to_end,
    bench_shard_get
);
criterion_main!(benches);
