//! On-chip buffer arena and off-chip backing store.

use std::collections::HashMap;
use step_core::elem::Elem;
use step_core::error::{Result, StepError};
use step_core::tile::Tile;

/// A buffer allocated by `Bufferize`: the captured tiles plus the
/// dimension extents observed while filling it.
#[derive(Debug, Clone)]
pub struct StoredBuffer {
    /// Captured elements in stream order.
    pub elems: Vec<Elem>,
    /// Extents of the buffered dims (outermost first).
    pub dims: Vec<u64>,
    /// Total payload bytes.
    pub bytes: u64,
}

/// One allocation or release in simulated time, for computing a global
/// peak across shard-local arenas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaEvent {
    /// Simulated time of the event (the node's local clock).
    pub time: u64,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Allocation (`true`) or release (`false`).
    pub alloc: bool,
}

/// Peak resident bytes of a set of [`ArenaEvent`] timelines, merged in
/// simulated-time order (allocations before releases at equal times, so
/// the estimate is conservative). Order-independent: the result depends
/// only on the multiset of events, never on which shard or worker
/// produced them.
pub fn peak_of_events(mut events: Vec<ArenaEvent>) -> u64 {
    events.sort_by_key(|e| (e.time, !e.alloc));
    let (mut live, mut peak) = (0u64, 0u64);
    for e in events {
        if e.alloc {
            live += e.bytes;
            peak = peak.max(live);
        } else {
            live = live.saturating_sub(e.bytes);
        }
    }
    peak
}

/// The on-chip scratchpad arena shared by `Bufferize`/`Streamify` nodes.
///
/// Tracks live and peak byte usage, which provides the *measured* on-chip
/// memory requirement for dynamically-sized buffers (§4.2, "handling data
/// dependencies"). In sharded simulations each shard owns an arena; the
/// per-shard [`ArenaEvent`] logs are merged by simulated time at report
/// time so the whole-accelerator peak is deterministic regardless of how
/// shards interleave on the host.
#[derive(Debug, Default)]
pub struct Arena {
    buffers: HashMap<u64, StoredBuffer>,
    next_id: u64,
    live_bytes: u64,
    peak_bytes: u64,
    /// Timestamped alloc/free log, kept only when enabled (sharded runs).
    events: Option<Vec<ArenaEvent>>,
    /// Simulated time of the most recent alloc/free, stamped by callers.
    last_time: u64,
}

impl Arena {
    /// Creates an empty arena.
    pub fn new() -> Arena {
        Arena::default()
    }

    /// Creates an arena that records timestamped alloc/free events for a
    /// cross-shard peak merge.
    pub fn with_event_log() -> Arena {
        Arena {
            events: Some(Vec::new()),
            ..Arena::default()
        }
    }

    /// Restores the just-built state in place, keeping the buffer map's
    /// and event log's allocations (pooled run reset). Whether the arena
    /// records events is preserved.
    pub fn reset(&mut self) {
        self.buffers.clear();
        self.next_id = 0;
        self.live_bytes = 0;
        self.peak_bytes = 0;
        if let Some(ev) = &mut self.events {
            ev.clear();
        }
        self.last_time = 0;
    }

    /// Stamps the simulated time of the next alloc/free (callers set this
    /// to their local clock right before mutating).
    pub fn set_time(&mut self, t: u64) {
        self.last_time = t;
    }

    /// Drains the recorded event log (empty unless created with
    /// [`Arena::with_event_log`]).
    pub fn take_events(&mut self) -> Vec<ArenaEvent> {
        self.events.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Allocates a buffer, returning its id.
    pub fn alloc(&mut self, buf: StoredBuffer) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.live_bytes += buf.bytes;
        self.peak_bytes = self.peak_bytes.max(self.live_bytes);
        if let Some(ev) = &mut self.events {
            ev.push(ArenaEvent {
                time: self.last_time,
                bytes: buf.bytes,
                alloc: true,
            });
        }
        self.buffers.insert(id, buf);
        id
    }

    /// Reads a buffer.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Exec`] if the buffer does not exist (already
    /// freed or never allocated).
    pub fn get(&self, id: u64) -> Result<&StoredBuffer> {
        self.buffers
            .get(&id)
            .ok_or_else(|| StepError::Exec(format!("buffer {id} not resident")))
    }

    /// Frees a buffer. Freeing twice is an error.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Exec`] if the buffer does not exist.
    pub fn free(&mut self, id: u64) -> Result<()> {
        match self.buffers.remove(&id) {
            Some(b) => {
                self.live_bytes -= b.bytes;
                if let Some(ev) = &mut self.events {
                    ev.push(ArenaEvent {
                        time: self.last_time,
                        bytes: b.bytes,
                        alloc: false,
                    });
                }
                Ok(())
            }
            None => Err(StepError::Exec(format!("double free of buffer {id}"))),
        }
    }

    /// Current resident bytes.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Peak resident bytes over the run.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }
}

/// Dense contents of off-chip memory, keyed by the base address of each
/// registered tensor. Loads overlapping a registered tensor return dense
/// tiles; loads elsewhere return phantom tiles of the right shape, keeping
/// timing runs cheap.
#[derive(Debug, Default)]
pub struct BackingStore {
    tensors: HashMap<u64, StoredTensor>,
}

#[derive(Debug)]
struct StoredTensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl BackingStore {
    /// Creates an empty store.
    pub fn new() -> BackingStore {
        BackingStore::default()
    }

    /// Drops every registered tensor (pooled run reset).
    pub fn clear(&mut self) {
        self.tensors.clear();
    }

    /// Registers a dense row-major tensor at `base_addr`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn register(&mut self, base_addr: u64, rows: usize, cols: usize, data: Vec<f32>) {
        assert_eq!(data.len(), rows * cols, "backing tensor size mismatch");
        self.tensors
            .insert(base_addr, StoredTensor { rows, cols, data });
    }

    /// Reads the tile at element offset `(r0, c0)` of the tensor at
    /// `base_addr`, or a phantom tile if nothing is registered there.
    pub fn read_tile(
        &self,
        base_addr: u64,
        r0: usize,
        c0: usize,
        rows: usize,
        cols: usize,
    ) -> Tile {
        match self.tensors.get(&base_addr) {
            Some(t) => {
                let mut out = Vec::with_capacity(rows * cols);
                for r in 0..rows {
                    for c in 0..cols {
                        let (rr, cc) = (r0 + r, c0 + c);
                        out.push(if rr < t.rows && cc < t.cols {
                            t.data[rr * t.cols + cc]
                        } else {
                            0.0
                        });
                    }
                }
                Tile::dense(rows, cols, out)
            }
            None => Tile::phantom(rows, cols),
        }
    }

    /// Writes a tile at element offset `(r0, c0)` of the tensor at
    /// `base_addr`. Writes to unregistered regions or with phantom data
    /// are accounted but not materialized.
    pub fn write_tile(&mut self, base_addr: u64, r0: usize, c0: usize, tile: &Tile) {
        if let (Some(t), Some(vals)) = (self.tensors.get_mut(&base_addr), tile.values()) {
            for r in 0..tile.rows() {
                for c in 0..tile.cols() {
                    let (rr, cc) = (r0 + r, c0 + c);
                    if rr < t.rows && cc < t.cols {
                        t.data[rr * t.cols + cc] = vals[r * tile.cols() + c];
                    }
                }
            }
        }
    }

    /// The `(rows, cols)` of the tensor registered at `base_addr`, if
    /// any.
    pub fn extent(&self, base_addr: u64) -> Option<(usize, usize)> {
        self.tensors.get(&base_addr).map(|t| (t.rows, t.cols))
    }

    /// Reads back a registered tensor's dense contents, if present.
    pub fn tensor(&self, base_addr: u64) -> Option<(usize, usize, &[f32])> {
        self.tensors
            .get(&base_addr)
            .map(|t| (t.rows, t.cols, t.data.as_slice()))
    }

    /// Whether any tensor is registered.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }
}

/// A [`BackingStore`] shareable across shard workers.
///
/// Timing-only runs (no preloaded tensors) never take the lock: reads
/// return phantom tiles and writes are accounted but not materialized, so
/// the hot path is a single relaxed atomic load.
///
/// **Functional-determinism caveat:** accesses are serialized but not
/// *ordered* across shards within a sub-round. Reads and writes of the
/// same registered tensor are deterministic only when the program orders
/// them through dataflow (a load consuming a token produced after the
/// store's acknowledgement) or when they live in the same shard. A
/// sharded program whose shards race unordered reads against writes of
/// one tensor is outside the engine's determinism contract — the same
/// caveat the monolithic engine has for programs racing through off-chip
/// memory, widened to host scheduling. Every current model builder only
/// reads preloaded (read-only) tensors and writes disjoint output
/// regions.
#[derive(Debug, Default)]
pub struct SharedStore {
    has_data: std::sync::atomic::AtomicBool,
    inner: std::sync::RwLock<BackingStore>,
}

impl SharedStore {
    /// Creates an empty store.
    pub fn new() -> SharedStore {
        SharedStore::default()
    }

    /// Drops every registered tensor and re-arms the phantom fast path
    /// (pooled run reset; preloads re-register from the run binding).
    ///
    /// # Panics
    ///
    /// Panics if the lock is poisoned.
    pub fn reset(&self) {
        self.inner.write().expect("store lock").clear();
        self.has_data
            .store(false, std::sync::atomic::Ordering::Release);
    }

    /// Registers a dense row-major tensor at `base_addr`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or the lock is poisoned.
    pub fn register(&self, base_addr: u64, rows: usize, cols: usize, data: Vec<f32>) {
        self.inner
            .write()
            .expect("store lock")
            .register(base_addr, rows, cols, data);
        self.has_data
            .store(true, std::sync::atomic::Ordering::Release);
    }

    fn backed(&self) -> bool {
        self.has_data.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Whether no tensor is registered: every read returns a phantom
    /// tile, so bulk emitters may collapse whole completion runs into
    /// one repeated shape-only payload.
    pub fn is_empty(&self) -> bool {
        !self.backed()
    }

    /// See [`BackingStore::read_tile`].
    pub fn read_tile(
        &self,
        base_addr: u64,
        r0: usize,
        c0: usize,
        rows: usize,
        cols: usize,
    ) -> Tile {
        if !self.backed() {
            return Tile::phantom(rows, cols);
        }
        self.inner
            .read()
            .expect("store lock")
            .read_tile(base_addr, r0, c0, rows, cols)
    }

    /// See [`BackingStore::write_tile`].
    pub fn write_tile(&self, base_addr: u64, r0: usize, c0: usize, tile: &Tile) {
        if !self.backed() {
            return;
        }
        self.inner
            .write()
            .expect("store lock")
            .write_tile(base_addr, r0, c0, tile);
    }

    /// See [`BackingStore::extent`]. Timing-only runs take no lock.
    pub fn extent(&self, base_addr: u64) -> Option<(usize, usize)> {
        if !self.backed() {
            return None;
        }
        self.inner.read().expect("store lock").extent(base_addr)
    }

    /// Reads back a registered tensor's dense contents, if present.
    pub fn tensor(&self, base_addr: u64) -> Option<(usize, usize, Vec<f32>)> {
        if !self.backed() {
            return None;
        }
        self.inner
            .read()
            .expect("store lock")
            .tensor(base_addr)
            .map(|(r, c, d)| (r, c, d.to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_tracks_peak() {
        let mut a = Arena::new();
        let id1 = a.alloc(StoredBuffer {
            elems: vec![],
            dims: vec![2],
            bytes: 100,
        });
        let id2 = a.alloc(StoredBuffer {
            elems: vec![],
            dims: vec![4],
            bytes: 50,
        });
        assert_eq!(a.live_bytes(), 150);
        a.free(id1).unwrap();
        assert_eq!(a.live_bytes(), 50);
        assert_eq!(a.peak_bytes(), 150);
        a.free(id2).unwrap();
        assert!(a.free(id2).is_err());
    }

    #[test]
    fn event_log_peak_is_time_ordered_not_host_ordered() {
        // Two shard-local arenas whose host-order interleaving is unknown:
        // the merged peak depends only on simulated timestamps.
        let mut a = Arena::with_event_log();
        let mut b = Arena::with_event_log();
        a.set_time(10);
        let ia = a.alloc(StoredBuffer {
            elems: vec![],
            dims: vec![],
            bytes: 100,
        });
        a.set_time(30);
        a.free(ia).unwrap();
        b.set_time(20);
        let ib = b.alloc(StoredBuffer {
            elems: vec![],
            dims: vec![],
            bytes: 60,
        });
        b.set_time(40);
        b.free(ib).unwrap();
        let mut ev = a.take_events();
        ev.extend(b.take_events());
        // Overlap in [20, 30): 100 + 60.
        assert_eq!(peak_of_events(ev), 160);
    }

    #[test]
    fn event_peak_allocs_before_frees_at_equal_time() {
        let ev = vec![
            ArenaEvent {
                time: 5,
                bytes: 10,
                alloc: true,
            },
            ArenaEvent {
                time: 7,
                bytes: 10,
                alloc: false,
            },
            ArenaEvent {
                time: 7,
                bytes: 4,
                alloc: true,
            },
        ];
        assert_eq!(peak_of_events(ev), 14);
    }

    #[test]
    fn shared_store_phantom_fast_path_and_roundtrip() {
        let s = SharedStore::new();
        assert!(s.read_tile(0, 0, 0, 2, 2).is_phantom());
        s.register(0x10, 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(
            s.read_tile(0x10, 0, 0, 2, 2).values().unwrap(),
            &[1.0, 2.0, 3.0, 4.0]
        );
        s.write_tile(0x10, 0, 0, &Tile::splat(1, 1, 9.0));
        assert_eq!(s.tensor(0x10).unwrap().2[0], 9.0);
    }

    #[test]
    fn arena_get_missing_errors() {
        let a = Arena::new();
        assert!(a.get(0).is_err());
    }

    #[test]
    fn backing_store_roundtrip() {
        let mut s = BackingStore::new();
        s.register(0x1000, 4, 4, (0..16).map(|x| x as f32).collect());
        let t = s.read_tile(0x1000, 2, 2, 2, 2);
        assert_eq!(t.values().unwrap(), &[10.0, 11.0, 14.0, 15.0]);
        s.write_tile(0x1000, 0, 0, &Tile::splat(2, 2, 9.0));
        let t = s.read_tile(0x1000, 0, 0, 2, 2);
        assert_eq!(t.values().unwrap(), &[9.0; 4]);
    }

    #[test]
    fn unregistered_reads_are_phantom() {
        let s = BackingStore::new();
        let t = s.read_tile(0xdead, 0, 0, 8, 8);
        assert!(t.is_phantom());
        assert_eq!((t.rows(), t.cols()), (8, 8));
    }

    #[test]
    fn out_of_range_reads_are_zero_padded() {
        let mut s = BackingStore::new();
        s.register(0, 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let t = s.read_tile(0, 1, 1, 2, 2);
        assert_eq!(t.values().unwrap(), &[4.0, 0.0, 0.0, 0.0]);
    }
}
