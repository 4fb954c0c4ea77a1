//! Workload inputs and the serial oracle they are checked against.
//!
//! Inputs come only from the workload seed: the genome, the reads drawn
//! from it (exactly as `ScaledDataset::generate` draws them), and their
//! FASTQ bytes. The program under test receives only those bytes.

use dakc_baselines::count_kmers_serial;
use dakc_io::{generate_genome, simulate_reads, GenomeSpec, ReadSet, ReadSimConfig};
use dakc_kmer::{splitmix64, CanonicalMode, KmerCount};

/// k-mer length of every workload (the CLI default).
pub const K: usize = 31;

/// Every workload counts forward k-mers (the CLI default mode).
pub const MODE: CanonicalMode = CanonicalMode::Forward;

/// Substitution rate of the read simulator (as `ScaledDataset::generate`).
const ERROR_RATE: f64 = 0.002;

/// A generated dataset: the genome, its reads and their FASTQ bytes.
pub struct Input {
    /// Genome the reads were drawn from (serve queries draw from it too).
    pub genome: Vec<u8>,
    /// Read length of the dataset.
    pub read_len: usize,
    /// The reads.
    pub reads: ReadSet,
    /// The reads serialized as FASTQ, the form the program parses.
    pub fastq: Vec<u8>,
}

impl Input {
    /// Generates `name` (a Table V label) at scale `shift` from `seed`.
    pub fn generate(name: &str, shift: u32, seed: u64) -> Result<Self, String> {
        let spec = dakc_io::table_v()
            .into_iter()
            .find(|d| d.name == name)
            .ok_or_else(|| format!("unknown dataset {name:?}"))?;
        let scaled = spec.scaled(shift);
        let genome = generate_genome(
            &GenomeSpec {
                bases: scaled.genome_bases,
                repeats: spec.repeats.clone(),
            },
            seed,
        );
        let read_len = spec.read_len;
        let reads = simulate_reads(
            &genome,
            &read_cfg(read_len, scaled.num_reads),
            seed ^ 0x5EED,
        );
        let fastq = to_fastq(&reads)?;
        Ok(Self {
            genome,
            read_len,
            reads,
            fastq,
        })
    }

    /// Fresh reads from the same genome under a separate seed: sequencing
    /// errors included, so some of their k-mers miss the index.
    pub fn fresh_reads(&self, n: usize, seed: u64) -> ReadSet {
        simulate_reads(&self.genome, &read_cfg(self.read_len, n), seed)
    }

    /// The first `n` reads (all of them if there are fewer).
    pub fn prefix(&self, n: usize) -> ReadSet {
        let mut rs = ReadSet::new();
        for r in self.reads.iter().take(n) {
            rs.push(r);
        }
        rs
    }
}

fn read_cfg(read_len: usize, num_reads: usize) -> ReadSimConfig {
    ReadSimConfig {
        read_len,
        num_reads,
        error_rate: ERROR_RATE,
        both_strands: false,
    }
}

/// Serializes reads as FASTQ the way `dakc generate` writes them.
pub fn to_fastq(reads: &ReadSet) -> Result<Vec<u8>, String> {
    let records: Vec<dakc_io::FastxRecord> = reads
        .iter()
        .enumerate()
        .map(|(i, seq)| dakc_io::FastxRecord {
            id: format!("read.{i}"),
            seq: seq.to_vec(),
            qual: Some(vec![b'I'; seq.len()]),
        })
        .collect();
    let mut out = Vec::with_capacity(reads.total_bases() * 2 + reads.len() * 16);
    dakc_io::write_fastq(&mut out, &records).map_err(|e| e.to_string())?;
    Ok(out)
}

/// Parses FASTQ bytes into reads: the program's own ingestion path.
pub fn parse(fastq: &[u8]) -> Result<ReadSet, String> {
    dakc_io::fastx::fastq_to_readset(fastq).map_err(|e| format!("FASTQ parse: {e}"))
}

/// Order-sensitive digest of a sorted histogram.
pub fn digest(counts: &[KmerCount<u64>]) -> u64 {
    counts.iter().fold(counts.len() as u64, |h, c| {
        splitmix64(h ^ splitmix64(c.kmer ^ (u64::from(c.count) << 1)))
    })
}

/// The serial reference count of one input.
pub struct Oracle {
    /// Sorted `{k-mer, count}` table from `count_kmers_serial`.
    pub table: Vec<KmerCount<u64>>,
    /// [`digest`] of `table`.
    pub digest: u64,
    /// k-mer occurrences in the input.
    pub occurrences: u64,
}

impl Oracle {
    /// Counts `reads` with the serial baseline.
    pub fn of(reads: &ReadSet) -> Self {
        let table = count_kmers_serial::<u64>(reads, K, MODE, false).counts;
        let occurrences = table.iter().map(|c| u64::from(c.count)).sum();
        Self {
            digest: digest(&table),
            table,
            occurrences,
        }
    }

    /// The expected count of `kmer` (0 when absent).
    pub fn count_of(&self, kmer: u64) -> u32 {
        self.table
            .binary_search_by(|c| c.kmer.cmp(&kmer))
            .map_or(0, |i| self.table[i].count)
    }

    /// The count at or above which a k-mer is among the top 1% of
    /// distinct k-mers by count.
    pub fn hot_threshold(&self) -> u32 {
        let mut counts: Vec<u32> = self.table.iter().map(|c| c.count).collect();
        let top = counts.len().div_ceil(100).max(1);
        let (_, t, _) = counts.select_nth_unstable_by(top - 1, |a, b| b.cmp(a));
        *t
    }

    /// Count spectrum as `Shard::spectrum` reports it: slot `c - 1` for
    /// counts up to `max`, everything larger in slot `max`.
    pub fn spectrum(&self, max: u32) -> Vec<u64> {
        let mut buckets = vec![0u64; max as usize + 1];
        for c in &self.table {
            buckets[(c.count.min(max + 1) - 1) as usize] += 1;
        }
        buckets
    }

    /// The `n` highest-count records, count descending then k-mer
    /// ascending (the service's top-N order).
    pub fn top_n(&self, n: usize) -> Vec<KmerCount<u64>> {
        let mut all = self.table.clone();
        all.sort_by(|a, b| b.count.cmp(&a.count).then(a.kmer.cmp(&b.kmer)));
        all.truncate(n);
        all
    }

    /// The input properties each layer's cost depends on.
    /// `llc_bytes` is the host's last-level cache (0 when unknown, which
    /// reports the working-set ratio as 0).
    pub fn properties(&self, llc_bytes: u64) -> Vec<(&'static str, f64, &'static str)> {
        let distinct = self.table.len().max(1) as f64;
        let singletons = self.table.iter().filter(|c| c.count == 1).count() as f64;
        let max = self.table.iter().map(|c| c.count).max().unwrap_or(0);
        let top = self.top_n(self.table.len().div_ceil(100));
        let top_occ: u64 = top.iter().map(|c| u64::from(c.count)).sum();
        // Phase 2 sorts one 8-byte word per occurrence.
        let ws_bytes = self.occurrences * 8;
        let over_llc = if llc_bytes > 0 {
            ws_bytes as f64 / llc_bytes as f64
        } else {
            0.0
        };
        vec![
            ("input.kmers", self.occurrences as f64, "count"),
            ("input.distinct", self.table.len() as f64, "count"),
            ("input.singleton_share", singletons / distinct, "ratio"),
            ("input.max_count", f64::from(max), "count"),
            (
                "input.top1pct_share",
                top_occ as f64 / self.occurrences.max(1) as f64,
                "ratio",
            ),
            ("input.working_set_mib", ws_bytes as f64 / MIB, "MiB"),
            ("input.working_set_over_llc", over_llc, "ratio"),
        ]
    }
}

const MIB: f64 = 1024.0 * 1024.0;

/// The last-level cache size the host reports, in bytes (0 when the
/// host does not say).
pub fn llc_bytes() -> u64 {
    llc_from_sysfs().unwrap_or(0)
}

fn llc_from_sysfs() -> Option<u64> {
    let text = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size").ok()?;
    let t = text.trim();
    let (num, mult) = match t.as_bytes().last()? {
        b'K' => (&t[..t.len() - 1], 1u64 << 10),
        b'M' => (&t[..t.len() - 1], 1u64 << 20),
        _ => (t, 1),
    };
    num.parse::<u64>().ok().map(|n| n * mult)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_matches_its_own_digest_and_lookups() {
        let input = Input::generate("SRR28206931", 20, 7).unwrap();
        let o = Oracle::of(&parse(&input.fastq).unwrap());
        assert_eq!(o.digest, digest(&o.table));
        assert_eq!(o.occurrences as usize, input.reads.total_kmers(K));
        let first = o.table[0];
        assert_eq!(o.count_of(first.kmer), first.count);
        assert_eq!(o.spectrum(4).iter().sum::<u64>(), o.table.len() as u64);
        assert!(o.hot_threshold() >= 1);
    }
}
