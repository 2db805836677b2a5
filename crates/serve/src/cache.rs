//! Two-tier content-addressed result cache.
//!
//! The key is a 128-bit FNV-1a hash over everything that shapes the
//! answer: netlist text, delay-model tag, output required times, the
//! requested rung and the χ engine. The value is the *encoded response
//! payload* — serving stored bytes (never re-encoding) is what makes
//! responses for one key byte-identical across clients and restarts.
//!
//! Tier one is a bounded in-memory LRU. Tier two is a directory of
//! one-record files, each written with [`xrta_robust::fsio::atomic_write`]
//! in the journal record envelope (`{"crc":"….","data":…}`), so a torn
//! or corrupted entry is detected by checksum on load and skipped —
//! a kill mid-write costs one cache entry, never the server.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use xrta_chi::EngineKind;
use xrta_core::Verdict;
use xrta_rng::Fnv128;
use xrta_robust::journal::{encode_record, parse_record};
use xrta_robust::mem::{self, Subsystem};
use xrta_timing::tokens::encode_times;
use xrta_timing::Time;

/// Content hash identifying one analysis request. Two requests with
/// the same key are guaranteed the same answer bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(u128);

impl CacheKey {
    /// Hashes the analysis-shaping inputs. `hold_ms` and budget wishes
    /// are deliberately excluded: they affect *when* an answer arrives,
    /// not what it is — except that budgets can change the degradation
    /// rung, so the effective (policy-clamped) budgets are folded in by
    /// the caller via `budget_tag`.
    pub fn compute(
        netlist: &str,
        delay_model: &str,
        req: &[Time],
        algo: Verdict,
        engine: EngineKind,
        budget_tag: &str,
    ) -> CacheKey {
        let mut h = Fnv128::default();
        let mut eat = |bytes: &[u8]| {
            h.write(bytes);
            // Field separator: an out-of-band byte value so that
            // ("ab","c") and ("a","bc") hash differently.
            h.write(&[0x1f]);
        };
        eat(netlist.as_bytes());
        eat(delay_model.as_bytes());
        eat(encode_times(req).as_bytes());
        eat(algo.to_string().as_bytes());
        eat(engine.to_string().as_bytes());
        eat(budget_tag.as_bytes());
        CacheKey(h.finish())
    }

    /// 32-hex-digit rendering, used as the disk file stem.
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }

    /// Folds the 128-bit key to the 64-bit point the router hashes
    /// onto its ring. XOR-folding keeps every input bit influential,
    /// so shard placement is as uniform as the key itself.
    pub fn route_point(&self) -> u64 {
        (self.0 ^ (self.0 >> 64)) as u64
    }
}

/// The in-memory LRU tier: a capacity-bounded map with an access clock.
/// The workload is small (hundreds of entries), so eviction scans for
/// the minimum stamp instead of maintaining an intrusive list.
struct MemTier {
    capacity: usize,
    clock: u64,
    entries: HashMap<CacheKey, (u64, Vec<u8>)>,
    /// Bytes charged to [`Subsystem::ServeCache`] on the global meter.
    charged: u64,
}

/// Per-entry accounting: payload capacity plus the key, stamp and
/// hash-table slot overhead.
const CACHE_ENTRY_OVERHEAD: u64 = 64;

fn entry_cost(bytes: &[u8]) -> u64 {
    CACHE_ENTRY_OVERHEAD + bytes.len() as u64
}

impl MemTier {
    fn get(&mut self, key: CacheKey) -> Option<Vec<u8>> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(&key).map(|(stamp, bytes)| {
            *stamp = clock;
            bytes.clone()
        })
    }

    fn insert(&mut self, key: CacheKey, bytes: Vec<u8>) {
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        let cost = entry_cost(&bytes);
        mem::global().charge(Subsystem::ServeCache, cost);
        self.charged += cost;
        if let Some((_, old)) = self.entries.insert(key, (self.clock, bytes)) {
            self.uncharge(entry_cost(&old));
        }
        while self.entries.len() > self.capacity {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| *k)
                .expect("non-empty map has a minimum");
            if let Some((_, old)) = self.entries.remove(&oldest) {
                self.uncharge(entry_cost(&old));
            }
        }
    }

    fn uncharge(&mut self, cost: u64) {
        let cost = cost.min(self.charged);
        mem::global().release(Subsystem::ServeCache, cost);
        self.charged -= cost;
    }

    /// Evicts the least-recently-used half of the tier (memory
    /// pressure response). Disk entries are untouched — a later hit
    /// re-promotes — so this trades latency for bytes, never answers.
    fn evict_half(&mut self) -> usize {
        let target = self.entries.len() / 2;
        let mut stamps: Vec<(u64, CacheKey)> = self
            .entries
            .iter()
            .map(|(k, (stamp, _))| (*stamp, *k))
            .collect();
        stamps.sort_unstable();
        let mut evicted = 0;
        for (_, key) in stamps.into_iter().take(target) {
            if let Some((_, old)) = self.entries.remove(&key) {
                self.uncharge(entry_cost(&old));
                evicted += 1;
            }
        }
        self.entries.shrink_to_fit();
        evicted
    }
}

impl Drop for MemTier {
    fn drop(&mut self) {
        let charged = self.charged;
        self.uncharge(charged);
    }
}

/// Where a cache hit was found, for the stats counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HitTier {
    /// In-memory LRU.
    Memory,
    /// On-disk entry (promoted to memory on the way out).
    Disk,
}

/// The two-tier cache. Not internally synchronised: the server wraps
/// it in the coordinator mutex together with the single-flight table,
/// which is what closes the check-then-compute race.
pub struct ResultCache {
    mem: MemTier,
    disk_dir: Option<PathBuf>,
    /// Disk keys known present (survivors of the startup scan plus
    /// entries written this run). Avoids a stat per miss.
    disk_index: HashMap<CacheKey, ()>,
    /// Entries that failed the checksum on the startup scan.
    pub torn_discarded: usize,
}

impl ResultCache {
    /// Opens the cache. With `disk_dir`, the directory is created if
    /// needed and scanned: every `*.entry` file is checksum-verified,
    /// torn or invalid ones are deleted and counted, valid ones enter
    /// the disk index (not memory — promotion happens on first hit).
    pub fn open(mem_capacity: usize, disk_dir: Option<PathBuf>) -> std::io::Result<ResultCache> {
        let mut cache = ResultCache {
            mem: MemTier {
                capacity: mem_capacity,
                clock: 0,
                entries: HashMap::new(),
                charged: 0,
            },
            disk_dir,
            disk_index: HashMap::new(),
            torn_discarded: 0,
        };
        if let Some(dir) = cache.disk_dir.clone() {
            std::fs::create_dir_all(&dir)?;
            for entry in std::fs::read_dir(&dir)? {
                let path = entry?.path();
                let Some(key) = key_of_entry_path(&path) else {
                    continue;
                };
                match read_entry_file(&path) {
                    Some(_) => {
                        cache.disk_index.insert(key, ());
                    }
                    None => {
                        cache.torn_discarded += 1;
                        let _ = std::fs::remove_file(&path);
                    }
                }
            }
        }
        Ok(cache)
    }

    /// Looks the key up in memory, then disk. A disk hit is promoted
    /// into the memory tier.
    pub fn get(&mut self, key: CacheKey) -> Option<(Vec<u8>, HitTier)> {
        if let Some(bytes) = self.mem.get(key) {
            return Some((bytes, HitTier::Memory));
        }
        if self.disk_index.contains_key(&key) {
            let path = self.entry_path(key)?;
            match read_entry_file(&path) {
                Some(bytes) => {
                    self.mem.insert(key, bytes.clone());
                    return Some((bytes, HitTier::Disk));
                }
                None => {
                    // Lost a race with deletion, or late-detected
                    // corruption: treat as a miss and forget the entry.
                    self.disk_index.remove(&key);
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
        None
    }

    /// Stores computed answer bytes in both tiers. The disk write is
    /// atomic (temp + fsync + rename); on write failure the entry is
    /// simply not persisted — the memory tier still serves it.
    pub fn insert(&mut self, key: CacheKey, bytes: Vec<u8>) {
        if let Some(path) = self.entry_path(key) {
            let record = encode_record(&String::from_utf8_lossy(&bytes));
            if xrta_robust::fsio::atomic_write(&path, record.as_bytes()).is_ok() {
                self.disk_index.insert(key, ());
            }
        }
        self.mem.insert(key, bytes);
    }

    /// Number of entries currently in the disk tier's index.
    pub fn disk_entries(&self) -> usize {
        self.disk_index.len()
    }

    /// Memory-pressure response: evicts the LRU half of the memory
    /// tier and returns how many entries went. Answers stay reachable
    /// through the disk tier where one exists.
    pub fn reclaim_mem(&mut self) -> usize {
        self.mem.evict_half()
    }

    fn entry_path(&self, key: CacheKey) -> Option<PathBuf> {
        self.disk_dir
            .as_ref()
            .map(|d| d.join(format!("{}.entry", key.hex())))
    }
}

fn key_of_entry_path(path: &Path) -> Option<CacheKey> {
    let name = path.file_name()?.to_str()?;
    let stem = name.strip_suffix(".entry")?;
    if stem.len() != 32 {
        return None;
    }
    u128::from_str_radix(stem, 16).ok().map(CacheKey)
}

/// Reads and checksum-verifies one disk entry; `None` means torn,
/// corrupt, or unreadable.
fn read_entry_file(path: &Path) -> Option<Vec<u8>> {
    let text = std::fs::read_to_string(path).ok()?;
    parse_record(text.trim_end_matches('\n'))
        .ok()
        .map(String::into_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u8) -> CacheKey {
        CacheKey::compute(
            &format!("netlist {n}"),
            "unit",
            &[Time::new(i64::from(n))],
            Verdict::Approx2,
            EngineKind::Sat,
            "",
        )
    }

    #[test]
    fn key_separates_fields() {
        let a = CacheKey::compute("ab", "c", &[], Verdict::Exact, EngineKind::Bdd, "");
        let b = CacheKey::compute("a", "bc", &[], Verdict::Exact, EngineKind::Bdd, "");
        assert_ne!(a, b);
        let c = CacheKey::compute("ab", "c", &[], Verdict::Exact, EngineKind::Sat, "");
        assert_ne!(a, c);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = ResultCache::open(2, None).unwrap();
        cache.insert(key(1), b"one".to_vec());
        cache.insert(key(2), b"two".to_vec());
        assert!(cache.get(key(1)).is_some(), "touch 1 so 2 is oldest");
        cache.insert(key(3), b"three".to_vec());
        assert!(cache.get(key(2)).is_none(), "2 was evicted");
        assert_eq!(cache.get(key(1)).unwrap().0, b"one");
        assert_eq!(cache.get(key(3)).unwrap().0, b"three");
    }

    #[test]
    fn memory_tier_charges_and_reclaims_meter_bytes() {
        let meter = mem::global();
        let before = meter.current(Subsystem::ServeCache);
        let mut cache = ResultCache::open(8, None).unwrap();
        for n in 0..8u8 {
            cache.insert(key(n), vec![n; 100]);
        }
        let loaded = meter.current(Subsystem::ServeCache);
        assert!(
            loaded >= before + 8 * 100,
            "8 entries of 100 bytes charged, got {loaded} from {before}"
        );
        let evicted = cache.reclaim_mem();
        assert_eq!(evicted, 4);
        let after = meter.current(Subsystem::ServeCache);
        assert!(after < loaded, "reclaim released bytes");
        drop(cache);
        assert!(
            meter.current(Subsystem::ServeCache) <= before + loaded - after,
            "drop released the remaining charge"
        );
    }

    #[test]
    fn disk_tier_survives_reopen_and_discards_torn_entries() {
        let dir = std::env::temp_dir().join(format!("xrta-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut cache = ResultCache::open(4, Some(dir.clone())).unwrap();
            cache.insert(key(1), b"{\"status\":\"answer\"}".to_vec());
            cache.insert(key(2), b"{\"status\":\"busy\"}".to_vec());
        }
        // Simulate a torn write: a valid name with garbage contents.
        std::fs::write(
            dir.join(format!("{}.entry", key(9).hex())),
            b"{\"crc\":\"dead",
        )
        .unwrap();

        let mut cache = ResultCache::open(4, Some(dir.clone())).unwrap();
        assert_eq!(cache.torn_discarded, 1);
        assert_eq!(cache.disk_entries(), 2);
        let (bytes, tier) = cache.get(key(1)).unwrap();
        assert_eq!(bytes, b"{\"status\":\"answer\"}");
        assert_eq!(tier, HitTier::Disk);
        // Promoted: second read is a memory hit.
        assert_eq!(cache.get(key(1)).unwrap().1, HitTier::Memory);
        assert!(cache.get(key(9)).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The disk tier names its files by this hex, so it must not move.
    #[test]
    fn key_hex_is_pinned() {
        let k = CacheKey::compute(
            "INPUT(a)\nOUTPUT(b)\nb = NOT(a)\n",
            "unit",
            &[Time::new(3), Time::INF],
            Verdict::Approx2,
            EngineKind::Sat,
            "t=10",
        );
        assert_eq!(k.hex(), "95ded00f0223b133c21e0c1f14997e3b");
    }
}
