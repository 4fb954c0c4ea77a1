//! The typed [`ServeError`] taxonomy.
//!
//! Mirrors the `dakc-net` philosophy: every failure the serve subsystem
//! can observe — a damaged shard file, a malformed query payload, a dead
//! server rank — surfaces as a typed, attributable error, never a panic
//! and never a hang. The corruption variants are deliberately distinct
//! per damage class so tests (and operators) can tell a short file from
//! a flipped record block from a mismatched footer checksum.

use dakc_net::NetError;

/// Result alias for serve operations.
pub type ServeResult<T> = Result<T, ServeError>;

/// Everything that can go wrong building, loading, or serving a shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The file ends before the fixed-size header does.
    TruncatedHeader {
        /// Bytes actually present.
        got: usize,
        /// Bytes the header needs.
        want: usize,
    },
    /// The file is shorter than the record/index/footer layout the header
    /// announces.
    Truncated {
        /// Which region ran short (`records`, `index`, `footer`).
        what: &'static str,
        /// Bytes the header-announced layout requires.
        expected: u64,
        /// Bytes actually present.
        got: u64,
    },
    /// A magic string is wrong (not a shard file, or its tail was
    /// overwritten).
    BadMagic {
        /// Which magic failed (`header` or `footer`).
        at: &'static str,
    },
    /// The format version is one this build cannot read.
    BadVersion {
        /// Version found in the header.
        got: u32,
        /// Version this build writes.
        want: u32,
    },
    /// A header field is out of range or internally inconsistent.
    BadHeader {
        /// What was wrong.
        detail: String,
    },
    /// The footer checksum over header + index bytes does not match:
    /// metadata corruption.
    ChecksumMismatch {
        /// Checksum stored in the footer.
        expected: u64,
        /// Checksum recomputed from the bytes.
        got: u64,
    },
    /// One record block's content checksum does not match: record
    /// corruption (a flipped bit in the sorted `{kmer, count}` region).
    CorruptBlock {
        /// Zero-based index of the damaged block.
        block: usize,
        /// Checksum stored in the sampled index.
        expected: u64,
        /// Checksum recomputed from the block's bytes.
        got: u64,
    },
    /// Records are not strictly sorted by k-mer (a logically invalid
    /// writer; binary search would silently miss keys).
    Unsorted {
        /// Block where the order violation was found.
        block: usize,
    },
    /// A record's k-mer has bits set above the header's `2k` (a
    /// logically invalid writer: no `k`-mer has them, and the loaded
    /// shard keeps only the low `2k` bits of each key).
    KeyOutOfRange {
        /// Block holding the offending record.
        block: usize,
    },
    /// An I/O failure reading or writing a shard file.
    Io {
        /// What was being done (usually a path).
        context: String,
        /// The OS error.
        detail: String,
    },
    /// A malformed serve-protocol payload arrived on the mesh.
    Wire {
        /// Rank the payload came from.
        from: usize,
        /// What was malformed.
        detail: String,
    },
    /// A server rank is gone (or silent past the collective deadline):
    /// queries routed to its shard get this as a typed partial-results
    /// error instead of a hang.
    ShardUnavailable {
        /// The dead or unresponsive server rank.
        rank: usize,
        /// Why it is considered unavailable.
        detail: String,
    },
    /// Shards disagree on `k`, word width, or canonicality — they were
    /// not built by one job.
    Mismatch {
        /// The disagreement.
        detail: String,
    },
    /// A transport-level failure underneath the serve protocol.
    Net(NetError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::TruncatedHeader { got, want } => {
                write!(f, "truncated shard header: {got} bytes, want {want}")
            }
            ServeError::Truncated { what, expected, got } => {
                write!(f, "truncated shard {what}: {got} bytes, want {expected}")
            }
            ServeError::BadMagic { at } => write!(f, "bad shard magic at {at}"),
            ServeError::BadVersion { got, want } => {
                write!(f, "unsupported shard version {got} (this build reads {want})")
            }
            ServeError::BadHeader { detail } => write!(f, "bad shard header: {detail}"),
            ServeError::ChecksumMismatch { expected, got } => write!(
                f,
                "shard metadata checksum mismatch: footer says {expected:#018x}, bytes hash to {got:#018x}"
            ),
            ServeError::CorruptBlock { block, expected, got } => write!(
                f,
                "corrupt record block {block}: index says {expected:#018x}, bytes hash to {got:#018x}"
            ),
            ServeError::Unsorted { block } => {
                write!(f, "shard records out of order in block {block}")
            }
            ServeError::KeyOutOfRange { block } => {
                write!(f, "shard record in block {block} has a k-mer wider than 2k bits")
            }
            ServeError::Io { context, detail } => write!(f, "{context}: {detail}"),
            ServeError::Wire { from, detail } => {
                write!(f, "malformed serve payload from rank {from}: {detail}")
            }
            ServeError::ShardUnavailable { rank, detail } => {
                write!(f, "shard on rank {rank} unavailable: {detail}")
            }
            ServeError::Mismatch { detail } => write!(f, "shard mismatch: {detail}"),
            ServeError::Net(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<NetError> for ServeError {
    fn from(e: NetError) -> Self {
        ServeError::Net(e)
    }
}

impl ServeError {
    /// Wraps an I/O error with its context (usually the path involved).
    pub fn io(context: impl Into<String>, e: &std::io::Error) -> Self {
        ServeError::Io { context: context.into(), detail: e.to_string() }
    }

    /// The rank this error points at, when it names one — the serve
    /// analogue of [`NetError::rank`], used by workers to fill the
    /// obituary `blame` field.
    pub fn rank(&self) -> Option<usize> {
        match self {
            ServeError::Wire { from, .. } => Some(*from),
            ServeError::ShardUnavailable { rank, .. } => Some(*rank),
            ServeError::Net(e) => e.rank(),
            _ => None,
        }
    }
}
