//! The immutable on-disk shard format and its fallible loader.
//!
//! One shard file holds one rank's owner-partitioned, sorted
//! `{kmer, count}` run — exactly the table [`dakc::count_partition`]
//! leaves each rank holding after phase 2. The file is Gerbil-style
//! two-stage: a flat sorted record region plus a sampled index holding
//! the first k-mer and a content checksum of every block.
//!
//! A loaded [`Shard`] keeps none of the file image. After verification
//! the records are decoded into a compact radix-indexed layout: a
//! directory of `u32` offsets over the top `b` bits of each `2k`-bit key
//! (`b` chosen for 4–8 records per bucket), the remaining `2k - b` key
//! bits bit-packed, and the counts bit-packed as wide as the largest
//! count. A point lookup is one directory read plus a binary search in
//! one small bucket; at `k = 31` a shard holds about 8–9 B per record in
//! memory against 12 B in the file.
//!
//! ```text
//! offset  size          field
//! 0       8             magic "DAKSHRD1"
//! 8       4             version (u32 LE)
//! 12      4             k (u32 LE)
//! 16      4             word_bytes (u32 LE: 8 for u64, 16 for u128)
//! 20      1             canonical (0 or 1)
//! 21      3             zero padding
//! 24      4             rank (u32 LE)
//! 28      4             ranks (u32 LE)
//! 32      8             n_records (u64 LE)
//! 40      4             block_records (u32 LE)
//! 44      4             zero padding
//! 48      n*(wb+4)      records: sorted (kmer: wb bytes LE, count: u32 LE)
//! ...     B*(wb+8)      index: per block, first kmer + content checksum
//! ...     8             footer checksum (u64 LE over header + index bytes)
//! ...     8             end magic "DAKEND1\0"
//! ```
//!
//! The k-mer words are the engine's native 2-bit-packed encoding, written
//! little-endian at the job's word width. Integrity is layered so damage
//! classes stay distinguishable: the footer checksum covers the header
//! and the index (metadata), while each block carries its own content
//! checksum in the index — so a flipped bit in the record region always
//! surfaces as [`ServeError::CorruptBlock`] naming the block, never as a
//! generic mismatch. [`Shard::load`] verifies everything eagerly and
//! never panics on hostile bytes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

use dakc_kmer::{splitmix64, KmerCount, KmerWord};

use crate::error::{ServeError, ServeResult};

/// Leading magic of every shard file.
pub const SHARD_MAGIC: &[u8; 8] = b"DAKSHRD1";

/// Trailing magic (catches truncation-by-rewrite of the tail).
pub const SHARD_END_MAGIC: &[u8; 8] = b"DAKEND1\0";

/// Format version this build reads and writes.
pub const SHARD_VERSION: u32 = 1;

/// Fixed header size in bytes.
pub const SHARD_HEADER_BYTES: usize = 48;

/// Records per index block. 256 records keep the sampled index ~0.4% of
/// the record region at `u64` width while one block still fits well
/// inside a cache-friendly 3 KiB scan window.
pub const DEFAULT_BLOCK_RECORDS: u32 = 256;

/// Everything the header says about a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMeta {
    /// K-mer length the table was counted at.
    pub k: u32,
    /// Bytes per k-mer word on disk (8 for `u64`, 16 for `u128`).
    pub word_bytes: u32,
    /// Whether counts are canonical (strand-neutral).
    pub canonical: bool,
    /// Owner rank this shard belongs to.
    pub rank: u32,
    /// Total ranks of the job that built the shard set.
    pub ranks: u32,
    /// Records in this shard.
    pub n_records: u64,
    /// Records per index block.
    pub block_records: u32,
}

/// Rolling 64-bit content checksum: splitmix64 chained over 8-byte
/// little-endian chunks, seeded with the length so a shifted prefix or a
/// dropped tail changes the digest too.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut h = splitmix64(bytes.len() as u64 ^ 0x9e37_79b9_7f4a_7c15);
    for chunk in bytes.chunks(8) {
        let mut buf = [0u8; 8];
        buf[..chunk.len()].copy_from_slice(chunk);
        h = splitmix64(h ^ u64::from_le_bytes(buf));
    }
    h
}

/// Canonical shard file name for `rank` of a `ranks`-way build.
pub fn shard_path(dir: &Path, rank: usize, ranks: usize) -> PathBuf {
    dir.join(format!("shard-{rank}-of-{ranks}.dakshard"))
}

fn read_word<W: KmerWord>(bytes: &[u8], word_bytes: usize) -> W {
    let mut buf = [0u8; 16];
    buf[..word_bytes].copy_from_slice(&bytes[..word_bytes]);
    W::from_u128(u128::from_le_bytes(buf))
}

fn push_word<W: KmerWord>(out: &mut Vec<u8>, w: W, word_bytes: usize) {
    out.extend_from_slice(&w.to_u128().to_le_bytes()[..word_bytes]);
}

/// Serializes a sorted `{kmer, count}` table into shard wire format.
///
/// The input must be strictly sorted by k-mer (phase 2's output is);
/// this is asserted because an unsorted shard would fail its own loader.
pub fn encode_shard<W: KmerWord>(
    counts: &[KmerCount<W>],
    k: usize,
    canonical: bool,
    rank: usize,
    ranks: usize,
) -> Vec<u8> {
    let word_bytes = if W::BITS <= 64 { 8usize } else { 16 };
    debug_assert!(
        counts.windows(2).all(|w| w[0].kmer < w[1].kmer),
        "shard input must be strictly sorted"
    );
    let rec_bytes = word_bytes + 4;
    let n = counts.len();
    let block = DEFAULT_BLOCK_RECORDS as usize;
    let n_blocks = n.div_ceil(block);

    let mut out = Vec::with_capacity(
        SHARD_HEADER_BYTES + n * rec_bytes + n_blocks * (word_bytes + 8) + 16,
    );
    out.extend_from_slice(SHARD_MAGIC);
    out.extend_from_slice(&SHARD_VERSION.to_le_bytes());
    out.extend_from_slice(&(k as u32).to_le_bytes());
    out.extend_from_slice(&(word_bytes as u32).to_le_bytes());
    out.push(u8::from(canonical));
    out.extend_from_slice(&[0u8; 3]);
    out.extend_from_slice(&(rank as u32).to_le_bytes());
    out.extend_from_slice(&(ranks as u32).to_le_bytes());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&DEFAULT_BLOCK_RECORDS.to_le_bytes());
    out.extend_from_slice(&[0u8; 4]);
    debug_assert_eq!(out.len(), SHARD_HEADER_BYTES);

    for c in counts {
        push_word(&mut out, c.kmer, word_bytes);
        out.extend_from_slice(&c.count.to_le_bytes());
    }

    let records_at = SHARD_HEADER_BYTES;
    for b in 0..n_blocks {
        let first = counts[b * block].kmer;
        push_word(&mut out, first, word_bytes);
        let lo = records_at + b * block * rec_bytes;
        let hi = (lo + block * rec_bytes).min(records_at + n * rec_bytes);
        let sum = checksum64(&out[lo..hi]);
        out.extend_from_slice(&sum.to_le_bytes());
    }

    // Footer checksum covers header + index (the record region has its
    // per-block sums); splice the two ranges together for the digest.
    let index_at = records_at + n * rec_bytes;
    let mut meta = Vec::with_capacity(SHARD_HEADER_BYTES + (out.len() - index_at));
    meta.extend_from_slice(&out[..SHARD_HEADER_BYTES]);
    meta.extend_from_slice(&out[index_at..]);
    let footer = checksum64(&meta);
    out.extend_from_slice(&footer.to_le_bytes());
    out.extend_from_slice(SHARD_END_MAGIC);
    out
}

/// Writes one rank's table as a shard file (atomic rename, so a crashed
/// writer never leaves a half-shard under the final name).
pub fn write_shard<W: KmerWord>(
    path: &Path,
    counts: &[KmerCount<W>],
    k: usize,
    canonical: bool,
    rank: usize,
    ranks: usize,
) -> ServeResult<()> {
    let bytes = encode_shard(counts, k, canonical, rank, ranks);
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &bytes)
        .map_err(|e| ServeError::io(format!("write {}", tmp.display()), &e))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| ServeError::io(format!("rename to {}", path.display()), &e))?;
    Ok(())
}

/// Fixed-width bit-packed unsigned values (`0..=128` bits each): the
/// storage behind a loaded shard's key suffixes and counts.
#[derive(Debug, Clone)]
struct Packed {
    words: Vec<u64>,
    width: u32,
    mask: u128,
}

/// The low `bits` bits set (`bits <= 128`).
fn low_bits(bits: u32) -> u128 {
    u128::MAX.checked_shr(128 - bits).unwrap_or(0)
}

impl Packed {
    /// `len` zeroed slots of `width` bits, plus two spare words so the
    /// up-to-three-word window of any slot stays inside the array.
    fn zeroed(width: u32, len: usize) -> Self {
        let bits = width as usize * len;
        Self { words: vec![0; bits.div_ceil(64) + 2], width, mask: low_bits(width) }
    }

    /// Stores `v` (at most `width` bits) into the still-zero slot `i`.
    fn set(&mut self, i: usize, v: u128) {
        let bit = i * self.width as usize;
        let (w, off) = (bit / 64, (bit % 64) as u32);
        let shifted = v << off;
        self.words[w] |= shifted as u64;
        self.words[w + 1] |= (shifted >> 64) as u64;
        if off + self.width > 128 {
            self.words[w + 2] |= (v >> (128 - off)) as u64;
        }
    }

    #[inline]
    fn get(&self, i: usize) -> u128 {
        let bit = i * self.width as usize;
        let (w, off) = (bit / 64, (bit % 64) as u32);
        let mut v = (u128::from(self.words[w]) | (u128::from(self.words[w + 1]) << 64)) >> off;
        if off + self.width > 128 {
            v |= u128::from(self.words[w + 2]) << (128 - off);
        }
        v & self.mask
    }
}

/// Directory radix for `n` records: the largest `b` with `4 << b <= n`,
/// so buckets average 4–8 records, capped at the key's `key_bits`.
fn radix_bits(n: u64, key_bits: u32) -> u32 {
    (n / 4).checked_ilog2().unwrap_or(0).min(key_bits)
}

/// A loaded, fully verified shard, ready to answer lookups, in the
/// compact radix-indexed layout the module docs describe.
#[derive(Debug, Clone)]
pub struct Shard<W> {
    meta: ShardMeta,
    /// All `2k` key bits set: the largest valid k-mer word.
    key_mask: u128,
    /// Key bits below the directory radix (`2k - b`).
    suffix_bits: u32,
    /// `dir[p]..dir[p + 1]` are the records whose top `b` key bits
    /// equal `p`; `2^b + 1` entries.
    dir: Vec<u32>,
    /// Low `suffix_bits` of each key, in record order.
    suffixes: Packed,
    /// Each record's count.
    counts: Packed,
    _word: PhantomData<W>,
}

fn read_count(record: &[u8], word_bytes: usize) -> u32 {
    u32::from_le_bytes(record[word_bytes..word_bytes + 4].try_into().expect("4 bytes"))
}

impl<W: KmerWord> Shard<W> {
    /// Reads and verifies a shard file. Eager verification: magic,
    /// version, layout arithmetic, footer checksum, every block checksum
    /// and record ordering — so a served shard can never silently return
    /// wrong answers for damaged bytes.
    pub fn load(path: &Path) -> ServeResult<Self> {
        let bytes = std::fs::read(path)
            .map_err(|e| ServeError::io(format!("read {}", path.display()), &e))?;
        Self::from_bytes(&bytes)
    }

    /// [`Shard::load`] over an in-memory image. The image is only read:
    /// once verified, its records are decoded into the shard's compact
    /// layout and the caller may drop it.
    pub fn from_bytes(bytes: &[u8]) -> ServeResult<Self> {
        if bytes.len() < SHARD_HEADER_BYTES {
            return Err(ServeError::TruncatedHeader {
                got: bytes.len(),
                want: SHARD_HEADER_BYTES,
            });
        }
        if &bytes[..8] != SHARD_MAGIC {
            return Err(ServeError::BadMagic { at: "header" });
        }
        let u32_at = |at: usize| {
            u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
        };
        let version = u32_at(8);
        if version != SHARD_VERSION {
            return Err(ServeError::BadVersion { got: version, want: SHARD_VERSION });
        }
        let k = u32_at(12);
        let word_bytes = u32_at(16);
        let canonical = match bytes[20] {
            0 => false,
            1 => true,
            other => {
                return Err(ServeError::BadHeader {
                    detail: format!("canonical flag is {other}, want 0 or 1"),
                })
            }
        };
        let rank = u32_at(24);
        let ranks = u32_at(28);
        let n_records =
            u64::from_le_bytes(bytes[32..40].try_into().expect("8 bytes"));
        let block_records = u32_at(40);
        let expected_wb = if W::BITS <= 64 { 8 } else { 16 };
        if word_bytes != expected_wb {
            return Err(ServeError::BadHeader {
                detail: format!(
                    "word_bytes is {word_bytes}, this reader expects {expected_wb}"
                ),
            });
        }
        if k == 0 || k as usize > W::MAX_K {
            return Err(ServeError::BadHeader {
                detail: format!("k = {k} out of range 1..={}", W::MAX_K),
            });
        }
        if block_records == 0 {
            return Err(ServeError::BadHeader { detail: "block_records is 0".into() });
        }
        if ranks == 0 || rank >= ranks {
            return Err(ServeError::BadHeader {
                detail: format!("rank {rank} out of range for {ranks} ranks"),
            });
        }

        let rec_bytes = word_bytes as u64 + 4;
        let n_blocks = n_records.div_ceil(u64::from(block_records));
        let idx_entry = word_bytes as u64 + 8;
        let expected_len = (SHARD_HEADER_BYTES as u64)
            .checked_add(n_records.checked_mul(rec_bytes).ok_or_else(|| {
                ServeError::BadHeader { detail: format!("n_records {n_records} overflows") }
            })?)
            .and_then(|v| v.checked_add(n_blocks * idx_entry))
            .and_then(|v| v.checked_add(16))
            .ok_or_else(|| ServeError::BadHeader {
                detail: format!("n_records {n_records} overflows"),
            })?;
        if (bytes.len() as u64) < expected_len {
            let what = {
                let records_end =
                    SHARD_HEADER_BYTES as u64 + n_records * rec_bytes;
                if (bytes.len() as u64) < records_end {
                    "records"
                } else if (bytes.len() as u64) < records_end + n_blocks * idx_entry {
                    "index"
                } else {
                    "footer"
                }
            };
            return Err(ServeError::Truncated {
                what,
                expected: expected_len,
                got: bytes.len() as u64,
            });
        }
        if bytes.len() as u64 > expected_len {
            return Err(ServeError::BadHeader {
                detail: format!(
                    "{} trailing bytes after the end magic",
                    bytes.len() as u64 - expected_len
                ),
            });
        }
        if &bytes[bytes.len() - 8..] != SHARD_END_MAGIC {
            return Err(ServeError::BadMagic { at: "footer" });
        }

        let records_at = SHARD_HEADER_BYTES;
        let index_at = records_at + (n_records * rec_bytes) as usize;
        let footer_at = index_at + (n_blocks * idx_entry) as usize;

        // Metadata first: header + index under the footer checksum.
        let stored = u64::from_le_bytes(
            bytes[footer_at..footer_at + 8].try_into().expect("8 bytes"),
        );
        let mut meta_bytes =
            Vec::with_capacity(SHARD_HEADER_BYTES + (footer_at - index_at));
        meta_bytes.extend_from_slice(&bytes[..SHARD_HEADER_BYTES]);
        meta_bytes.extend_from_slice(&bytes[index_at..footer_at]);
        let got = checksum64(&meta_bytes);
        if got != stored {
            return Err(ServeError::ChecksumMismatch { expected: stored, got });
        }

        // Then every block: content checksum, then strict ordering.
        let wb = word_bytes as usize;
        let rec = rec_bytes as usize;
        for b in 0..n_blocks as usize {
            let e = index_at + b * idx_entry as usize;
            let first: W = read_word(&bytes[e..], wb);
            let stored_sum =
                u64::from_le_bytes(bytes[e + wb..e + wb + 8].try_into().expect("8 bytes"));
            let lo = records_at + b * block_records as usize * rec;
            let hi = (lo + block_records as usize * rec).min(index_at);
            let got_sum = checksum64(&bytes[lo..hi]);
            if got_sum != stored_sum {
                return Err(ServeError::CorruptBlock {
                    block: b,
                    expected: stored_sum,
                    got: got_sum,
                });
            }
            let block_first: W = read_word(&bytes[lo..], wb);
            if block_first != first {
                return Err(ServeError::Unsorted { block: b });
            }
        }
        if n_records > u64::from(u32::MAX) {
            return Err(ServeError::BadHeader {
                detail: format!("n_records {n_records} exceeds the u32 record offsets"),
            });
        }

        // Strict order, key range and the widest count, in one pass over
        // the verified image.
        let region = &bytes[records_at..index_at];
        let key_mask = W::mask(k as usize).to_u128();
        let mut prev: Option<W> = None;
        let mut max_count = 0u32;
        for (i, chunk) in region.chunks_exact(rec).enumerate() {
            let w: W = read_word(chunk, wb);
            let block = i / block_records as usize;
            if prev.is_some_and(|p| p >= w) {
                return Err(ServeError::Unsorted { block });
            }
            if w.to_u128() > key_mask {
                return Err(ServeError::KeyOutOfRange { block });
            }
            max_count = max_count.max(read_count(chunk, wb));
            prev = Some(w);
        }

        // Decode: bucket sizes into the directory, then prefix sums turn
        // them into offsets (sorted keys fill the buckets in order).
        let n = n_records as usize;
        let key_bits = 2 * k;
        let suffix_bits = key_bits - radix_bits(n_records, key_bits);
        let suffix_mask = low_bits(suffix_bits);
        let mut dir = vec![0u32; (1usize << (key_bits - suffix_bits)) + 1];
        let mut suffixes = Packed::zeroed(suffix_bits, n);
        let mut counts = Packed::zeroed(u32::BITS - max_count.leading_zeros(), n);
        for (i, chunk) in region.chunks_exact(rec).enumerate() {
            let v = read_word::<W>(chunk, wb).to_u128();
            dir[v.checked_shr(suffix_bits).unwrap_or(0) as usize + 1] += 1;
            suffixes.set(i, v & suffix_mask);
            counts.set(i, u128::from(read_count(chunk, wb)));
        }
        for p in 1..dir.len() {
            dir[p] += dir[p - 1];
        }

        Ok(Self {
            meta: ShardMeta {
                k,
                word_bytes,
                canonical,
                rank,
                ranks,
                n_records,
                block_records,
            },
            key_mask,
            suffix_bits,
            dir,
            suffixes,
            counts,
            _word: PhantomData,
        })
    }

    /// The header metadata.
    pub fn meta(&self) -> &ShardMeta {
        &self.meta
    }

    /// Records in the shard.
    pub fn len(&self) -> usize {
        self.meta.n_records as usize
    }

    /// Whether the shard holds no records.
    pub fn is_empty(&self) -> bool {
        self.meta.n_records == 0
    }

    /// Heap bytes the loaded shard holds: the directory plus both packed
    /// arrays.
    pub fn heap_bytes(&self) -> usize {
        self.dir.len() * 4 + (self.suffixes.words.len() + self.counts.words.len()) * 8
    }

    /// The k-mer of record `i`, which lies in directory bucket `p`.
    fn key(&self, p: usize, i: usize) -> W {
        let high = (p as u128).checked_shl(self.suffix_bits).unwrap_or(0);
        W::from_u128(high | self.suffixes.get(i))
    }

    /// Point lookup: the count of `w`, or `None` when the k-mer is not in
    /// this shard. One directory read finds the bucket of `w`'s top key
    /// bits, then a binary search over that bucket's packed suffixes (4–8
    /// on average) finds the record.
    #[inline]
    pub fn get(&self, w: W) -> Option<u32> {
        let v = w.to_u128();
        if v > self.key_mask {
            return None;
        }
        let p = v.checked_shr(self.suffix_bits).unwrap_or(0) as usize;
        let want = v & self.suffixes.mask;
        let (mut lo, mut hi) = (self.dir[p] as usize, self.dir[p + 1] as usize);
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.suffixes.get(mid).cmp(&want) {
                std::cmp::Ordering::Equal => return Some(self.counts.get(mid) as u32),
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        None
    }

    /// Iterates every record in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (W, u32)> + '_ {
        self.dir.windows(2).enumerate().flat_map(move |(p, r)| {
            (r[0] as usize..r[1] as usize).map(move |i| (self.key(p, i), self.counts.get(i) as u32))
        })
    }

    /// Count spectrum: bucket `i` (0-based) holds how many distinct
    /// k-mers occur exactly `i + 1` times; the final bucket holds the
    /// overflow (multiplicity above `max`). `max + 1` buckets total.
    pub fn spectrum(&self, max: u32) -> Vec<u64> {
        let mut buckets = vec![0u64; max as usize + 1];
        for i in 0..self.len() {
            let c = self.counts.get(i) as u32;
            let slot = if c > max { max as usize } else { (c - 1) as usize };
            buckets[slot] += 1;
        }
        buckets
    }

    /// The `n` highest-count records, ordered by count descending, k-mer
    /// ascending among ties. One pass keeps the best `n` in a heap.
    pub fn top_n(&self, n: usize) -> Vec<KmerCount<W>> {
        // A min-heap on (count, Reverse(kmer)): its root is the record the
        // next better one evicts.
        let mut best: BinaryHeap<Reverse<(u32, Reverse<W>)>> = BinaryHeap::new();
        for (w, c) in self.iter() {
            if best.len() < n {
                best.push(Reverse((c, Reverse(w))));
            } else if let Some(mut root) = best.peek_mut() {
                if (c, Reverse(w)) > root.0 {
                    *root = Reverse((c, Reverse(w)));
                }
            }
        }
        // Ascending `Reverse` order is descending (count, Reverse(kmer)).
        best.into_sorted_vec()
            .into_iter()
            .map(|Reverse((c, Reverse(w)))| KmerCount::new(w, c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn table(n: u64) -> Vec<KmerCount<u64>> {
        // Spread keys so multiple index blocks exist at n > 256.
        (0..n)
            .map(|i| KmerCount::new(i * 7 + 3, (i % 9 + 1) as u32))
            .collect()
    }

    #[test]
    fn roundtrip_small() {
        let t = table(10);
        let bytes = encode_shard(&t, 15, true, 2, 4);
        let s: Shard<u64> = Shard::from_bytes(&bytes).unwrap();
        assert_eq!(s.meta().k, 15);
        assert_eq!(s.meta().rank, 2);
        assert_eq!(s.meta().ranks, 4);
        assert!(s.meta().canonical);
        assert_eq!(s.len(), 10);
        for c in &t {
            assert_eq!(s.get(c.kmer), Some(c.count));
        }
        assert_eq!(s.get(1), None);
        assert_eq!(s.get(u64::MAX), None);
    }

    #[test]
    fn roundtrip_multi_block_and_u128() {
        let t = table(1000);
        let bytes = encode_shard(&t, 31, false, 0, 1);
        let s: Shard<u64> = Shard::from_bytes(&bytes).unwrap();
        assert_eq!(s.len(), 1000);
        assert_eq!(
            s.len().div_ceil(s.meta().block_records as usize),
            4,
            "1000 records at 256/block"
        );
        for c in &t {
            assert_eq!(s.get(c.kmer), Some(c.count));
        }
        // Misses on both sides of every block boundary.
        for probe in [0u64, 1, 2, 4, 5, 6, 9, 7 * 999 + 4, u64::MAX] {
            assert_eq!(s.get(probe), None, "probe {probe}");
        }

        let t128: Vec<KmerCount<u128>> = (0..300u128)
            .map(|i| KmerCount::new(i * 11 + 1, (i % 5 + 1) as u32))
            .collect();
        let bytes = encode_shard(&t128, 33, true, 0, 2);
        let s: Shard<u128> = Shard::from_bytes(&bytes).unwrap();
        assert_eq!(s.meta().word_bytes, 16);
        for c in &t128 {
            assert_eq!(s.get(c.kmer), Some(c.count));
        }
    }

    #[test]
    fn empty_shard_roundtrips() {
        let bytes = encode_shard::<u64>(&[], 21, true, 0, 1);
        let s: Shard<u64> = Shard::from_bytes(&bytes).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.get(0), None);
        assert_eq!(s.top_n(5), vec![]);
        assert_eq!(s.spectrum(3), vec![0, 0, 0, 0]);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("dakc-shard-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = shard_path(&dir, 1, 4);
        let t = table(500);
        write_shard(&path, &t, 21, true, 1, 4).unwrap();
        let s: Shard<u64> = Shard::load(&path).unwrap();
        assert_eq!(s.len(), 500);
        assert_eq!(s.get(t[499].kmer), Some(t[499].count));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spectrum_and_top_n() {
        let t = vec![
            KmerCount::new(1u64, 1),
            KmerCount::new(5, 3),
            KmerCount::new(9, 1),
            KmerCount::new(12, 7),
            KmerCount::new(20, 3),
        ];
        let bytes = encode_shard(&t, 15, true, 0, 1);
        let s: Shard<u64> = Shard::from_bytes(&bytes).unwrap();
        // 2 singletons, nothing at 2, two 3s, overflow (>3) holds the 7.
        assert_eq!(s.spectrum(3), vec![2, 0, 2, 1]);
        let top = s.top_n(3);
        assert_eq!(
            top,
            vec![KmerCount::new(12, 7), KmerCount::new(5, 3), KmerCount::new(20, 3)]
        );
    }

    #[test]
    fn truncated_header_is_typed() {
        let bytes = encode_shard(&table(10), 15, true, 0, 1);
        for cut in [0, 1, 7, 8, 30, SHARD_HEADER_BYTES - 1] {
            match Shard::<u64>::from_bytes(&bytes[..cut]) {
                Err(ServeError::TruncatedHeader { got, want }) => {
                    assert_eq!(got, cut);
                    assert_eq!(want, SHARD_HEADER_BYTES);
                }
                other => panic!("cut {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_body_is_typed() {
        let bytes = encode_shard(&table(10), 15, true, 0, 1);
        match Shard::<u64>::from_bytes(&bytes[..bytes.len() - 1]) {
            Err(ServeError::Truncated { what: "footer", .. }) => {}
            other => panic!("{other:?}"),
        }
        match Shard::<u64>::from_bytes(&bytes[..SHARD_HEADER_BYTES + 5]) {
            Err(ServeError::Truncated { what: "records", .. }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let mut bytes = encode_shard(&table(4), 15, true, 0, 1);
        bytes[0] ^= 0xFF;
        assert!(matches!(
            Shard::<u64>::from_bytes(&bytes),
            Err(ServeError::BadMagic { at: "header" })
        ));
        let mut bytes = encode_shard(&table(4), 15, true, 0, 1);
        bytes[8] = 99;
        assert!(matches!(
            Shard::<u64>::from_bytes(&bytes),
            Err(ServeError::BadVersion { got: 99, want: SHARD_VERSION })
        ));
    }

    #[test]
    fn flipped_record_bit_is_a_corrupt_block() {
        let t = table(600); // 3 blocks
        let clean = encode_shard(&t, 15, true, 0, 1);
        let rec = 12; // 8 + 4
        for (target_block, rec_idx) in [(0usize, 0usize), (1, 300), (2, 599)] {
            let mut bytes = clean.clone();
            let at = SHARD_HEADER_BYTES + rec_idx * rec + 3;
            bytes[at] ^= 0x10;
            match Shard::<u64>::from_bytes(&bytes) {
                Err(ServeError::CorruptBlock { block, .. }) => {
                    assert_eq!(block, target_block)
                }
                other => panic!("block {target_block}: {other:?}"),
            }
        }
    }

    #[test]
    fn damaged_footer_checksum_is_typed() {
        let clean = encode_shard(&table(100), 15, true, 0, 1);
        // Flip a bit inside the stored footer checksum itself.
        let mut bytes = clean.clone();
        let at = bytes.len() - 16;
        bytes[at] ^= 0x01;
        assert!(matches!(
            Shard::<u64>::from_bytes(&bytes),
            Err(ServeError::ChecksumMismatch { .. })
        ));
        // And a bit inside the index region (covered by the footer sum).
        let mut bytes = clean;
        let idx_at = SHARD_HEADER_BYTES + 100 * 12;
        bytes[idx_at + 2] ^= 0x40;
        assert!(matches!(
            Shard::<u64>::from_bytes(&bytes),
            Err(ServeError::ChecksumMismatch { .. })
        ));
    }

    /// A strictly sorted table from raw `(key, count)` pairs: keys masked
    /// to `2k` bits and deduplicated, counts at least 1.
    fn table_of<W: KmerWord>(k: usize, raw: &[(u128, u32)]) -> Vec<KmerCount<W>> {
        let mask = W::mask(k).to_u128();
        let map: std::collections::BTreeMap<u128, u32> =
            raw.iter().map(|&(key, c)| (key & mask, c.max(1))).collect();
        map.into_iter().map(|(key, c)| KmerCount::new(W::from_u128(key), c)).collect()
    }

    /// Loads `t` as a shard and checks `get` (every stored key, and the
    /// absent keys next to each one and at both ends of the key space),
    /// `iter`, `spectrum` and `top_n` against the table itself.
    fn check_against<W: KmerWord>(t: &[KmerCount<W>], k: usize) -> Shard<W> {
        let s: Shard<W> = Shard::from_bytes(&encode_shard(t, k, false, 0, 1)).unwrap();
        assert_eq!(s.len(), t.len());
        for c in t {
            assert_eq!(s.get(c.kmer), Some(c.count), "stored key {:#x}", c.kmer.to_u128());
        }
        let mask = W::mask(k).to_u128();
        let present = |v: u128| t.binary_search_by_key(&v, |c| c.kmer.to_u128()).is_ok();
        let mut probes = vec![0, mask];
        if mask < low_bits(W::BITS) {
            probes.push(mask + 1); // a word wider than 2k bits
        }
        for c in t {
            let v = c.kmer.to_u128();
            probes.extend(v.checked_sub(1));
            probes.extend(v.checked_add(1).filter(|&p| p <= low_bits(W::BITS)));
        }
        for p in probes.into_iter().filter(|&p| !present(p)) {
            assert_eq!(s.get(W::from_u128(p)), None, "absent key {p:#x}");
        }

        let want: Vec<(W, u32)> = t.iter().map(|c| (c.kmer, c.count)).collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), want);
        for max in [1u32, 3, 64] {
            let mut buckets = vec![0u64; max as usize + 1];
            for c in t {
                buckets[(c.count.min(max + 1) - 1) as usize] += 1;
            }
            assert_eq!(s.spectrum(max), buckets, "spectrum up to {max}");
        }
        let mut ranked = t.to_vec();
        ranked.sort_by(|a, b| b.count.cmp(&a.count).then(a.kmer.cmp(&b.kmer)));
        for n in [0, 1, 5, t.len(), t.len() + 3] {
            assert_eq!(s.top_n(n), ranked[..n.min(t.len())].to_vec(), "top {n}");
        }
        s
    }

    #[test]
    fn compact_layout_edge_tables() {
        for k in [15usize, 21, 31, 32] {
            let mask = u64::mask(k).to_u128();
            check_against::<u64>(&[], k);
            check_against::<u64>(&table_of(k, &[(mask / 3, 7)]), k);
            check_against::<u64>(&table_of(k, &[(0, 2), (1, 1), (mask / 2, 9), (mask, 5)]), k);
        }
        for k in [33usize, 63, 64] {
            let mask = u128::mask(k);
            check_against::<u128>(&[], k);
            check_against::<u128>(&table_of(k, &[(mask / 3, 7)]), k);
            check_against::<u128>(&table_of(k, &[(0, 2), (1, 1), (mask / 2, 9), (mask, 5)]), k);
        }
    }

    #[test]
    fn k31_shard_holds_at_most_9_bytes_per_record() {
        // 200k spread keys; counts mostly low with a heavy-hitter tail, so
        // the count width is set by a 100k multiplicity (17 bits).
        let raw: Vec<(u128, u32)> = (0..200_000u64)
            .map(|i| {
                let c = if i % 1000 == 0 { 100_000 } else { (i % 3) as u32 + 1 };
                (u128::from(splitmix64(i)), c)
            })
            .collect();
        let t = table_of::<u64>(31, &raw);
        let s: Shard<u64> = Shard::from_bytes(&encode_shard(&t, 31, false, 0, 1)).unwrap();
        let per_record = s.heap_bytes() as f64 / t.len() as f64;
        assert!(per_record <= 9.0, "{per_record:.2} B per record");
        let buckets = s.dir.len() - 1;
        let avg = t.len() as f64 / buckets as f64;
        assert!((4.0..8.0).contains(&avg), "{avg:.2} records per bucket");
    }

    proptest! {
        // Any single flipped bit in the record region surfaces as
        // CorruptBlock naming the damaged block — never a panic, never a
        // silent success.
        #[test]
        fn any_record_flip_is_caught(
            n in 1u64..700,
            byte_mille in 0usize..1000,
            bit in 0u8..8,
        ) {
            let t = table(n);
            let mut bytes = encode_shard(&t, 15, true, 0, 1);
            let rec_region = n as usize * 12;
            let off = (byte_mille * rec_region / 1000).min(rec_region - 1);
            bytes[SHARD_HEADER_BYTES + off] ^= 1 << bit;
            let expect_block = off / (12 * DEFAULT_BLOCK_RECORDS as usize);
            match Shard::<u64>::from_bytes(&bytes) {
                Err(ServeError::CorruptBlock { block, .. }) => {
                    prop_assert_eq!(block, expect_block);
                }
                other => prop_assert!(false, "expected CorruptBlock, got {:?}", other),
            }
        }

        // Any truncation point yields a typed truncation/magic error —
        // loaders must never panic on a short file.
        #[test]
        fn any_truncation_is_typed(n in 0u64..300, keep_mille in 0usize..1000) {
            let t = table(n);
            let bytes = encode_shard(&t, 15, true, 0, 1);
            let keep = (keep_mille * bytes.len() / 1000).min(bytes.len() - 1);
            match Shard::<u64>::from_bytes(&bytes[..keep]) {
                Err(
                    ServeError::TruncatedHeader { .. } | ServeError::Truncated { .. },
                ) => {}
                other => prop_assert!(false, "keep {}: {:?}", keep, other),
            }
        }

        // Arbitrary hostile bytes never panic the loader.
        #[test]
        fn hostile_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..4096)) {
            let _ = Shard::<u64>::from_bytes(&bytes);
        }
    }

    /// Arbitrary keys; counts are small for about half the records and
    /// anywhere up to `u32::MAX` for the rest, so count widths vary.
    fn raw_table(max_len: usize) -> impl Strategy<Value = Vec<(u128, u32)>> {
        prop::collection::vec((any::<u128>(), any::<u32>(), any::<bool>()), 0..max_len).prop_map(
            |raw| {
                raw.into_iter()
                    .map(|(key, c, small)| (key, if small { c % 3 + 1 } else { c }))
                    .collect()
            },
        )
    }

    proptest! {
        #[test]
        fn compact_u64_shard_matches_its_table(
            raw in raw_table(700),
            k in prop::sample::select(vec![15usize, 21, 31, 32]),
        ) {
            check_against::<u64>(&table_of(k, &raw), k);
        }

        #[test]
        fn compact_u128_shard_matches_its_table(
            raw in raw_table(700),
            k in prop::sample::select(vec![33usize, 63]),
        ) {
            check_against::<u128>(&table_of(k, &raw), k);
        }

        // Keys sharing a poly-A prefix (only their last six bases vary)
        // all fall into directory bucket 0, which must still be searched
        // correctly however large it grows.
        #[test]
        fn poly_a_prefix_keys_share_one_bucket(
            raw in prop::collection::vec((0u64..4096, 1u32..1000), 1..700),
            k in prop::sample::select(vec![15usize, 21, 31, 32]),
        ) {
            let raw: Vec<(u128, u32)> = raw.into_iter().map(|(v, c)| (u128::from(v), c)).collect();
            let s = check_against::<u64>(&table_of(k, &raw), k);
            prop_assert_eq!(s.dir[1] as usize, s.len());
            let s = check_against::<u128>(&table_of(k + 31, &raw), k + 31);
            prop_assert_eq!(s.dir[1] as usize, s.len());
        }
    }
}
