//! Set-associative cache models for the multi-chip GPU simulator.
//!
//! One generic [`SetAssocCache`] implements everything the paper's cache
//! hierarchy needs:
//!
//! * true-LRU replacement within a set,
//! * optional **sectored** lines (valid bits per sector; Fig. 14 sweep),
//! * optional **way partitioning** into a local-data and a remote-data pool,
//!   which is how the Static (L1.5, Arunkumar et al.) and Dynamic (Milic et
//!   al.) baselines reserve capacity for local vs remote data,
//! * write-back dirty tracking with victim reporting, and
//! * bulk flush/invalidate for software coherence at kernel boundaries.
//!
//! Every resident line is tagged with whether its data belongs to the local
//! memory partition ([`DataHome::Local`]) or a remote one
//! ([`DataHome::Remote`]); the occupancy breakdown of Fig. 9 falls directly
//! out of these tags.
//!
//! A cache keeps the ways of all its sets in flat arrays indexed
//! `set * assoc + way` (tags, LRU stamps, a flags byte and the sector
//! bits): four allocations per cache, and a lookup scans one contiguous
//! run of tags.
//!
//! # Example
//!
//! ```
//! use mcgpu_cache::{CacheConfig, DataHome, LookupOutcome, SetAssocCache};
//! use mcgpu_types::LineAddr;
//!
//! let mut llc = SetAssocCache::new(CacheConfig::llc_slice(256 << 10, 16, 128));
//! assert_eq!(llc.lookup(LineAddr(7), None, false), LookupOutcome::Miss);
//! llc.fill(LineAddr(7), None, DataHome::Local, false);
//! assert_eq!(llc.lookup(LineAddr(7), None, false), LookupOutcome::Hit);
//! ```

pub mod cache;
pub mod stats;

pub use cache::{CacheConfig, DataHome, Eviction, LookupOutcome, SetAssocCache, WayPool};
pub use stats::CacheStats;
