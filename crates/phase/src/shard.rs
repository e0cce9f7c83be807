//! Segment-sharded profiling: split one whole-trace profiling pass
//! into per-segment shards whose merged output is **bit-identical** to
//! the monolithic pass.
//!
//! The decomposition rests on two facts:
//!
//! 1. **BBV accumulation is exact integer arithmetic.** Signatures are
//!    accumulated in the projected space against ±1 Rademacher rows
//!    ([`RandomProjection`]), so every partial sum is an integer with
//!    magnitude bounded by the trace length (far below 2⁵³). `f64`
//!    represents and adds such integers exactly, which makes the
//!    accumulation associative: summing per-segment partial vectors
//!    equals the monolithic left-to-right sum bit-for-bit.
//!    Normalisation (`× 1/len`) happens once, at merge, with the same
//!    operands as the monolithic flush.
//! 2. **The per-block profiling state is cheap to reconstruct.** What a
//!    profiler knows at trace position *S* beyond its accumulators is
//!    tiny: the fixed-length slicer needs the start of the interval
//!    spanning *S* and how much of it is consumed; the loop monitor
//!    needs the live loop stack and previous block; the boundary slicer
//!    needs the position of the last header entry. The `*Tracker` types
//!    recompute exactly that state with an O(1)-per-block walk over the
//!    prefix — no vectors, no hash maps, no attribution — so a shard
//!    aligns itself with the global trace for a fraction of the cost of
//!    profiling the prefix.
//!
//! A shard therefore emits *un-normalised pieces* ([`RawInterval`])
//! keyed by the global start of the interval they contribute to. A
//! segment boundary that splits an interval produces two (or, for
//! segments shorter than one interval, a chain of) pieces with equal
//! `start`; [`merge_fine`] coalesces them by exact addition before
//! normalising. Loop tallies are additive counters merged per header
//! ([`merge_loops`]), with `min_depth` taken only over shards that
//! actually pushed the header (a shard that merely continued iterating
//! a loop entered before its segment has no depth observation).
//!
//! The segment walk driving these types lives in `mlpa-core`; here
//! everything consumes `(BlockId, len)` records, and the merges' oracles
//! live in [`crate::reference`].

use crate::interval::Interval;
use crate::loops::{CyclicStructure, LoopProfile};
use crate::project::RandomProjection;
use mlpa_isa::{BlockId, Program};
use std::collections::HashMap;

/// An un-normalised contribution to one profiled interval: the piece a
/// single shard saw of the interval starting at global instruction
/// `start`.
#[derive(Debug, Clone, PartialEq)]
pub struct RawInterval {
    /// Global start of the interval this piece belongs to.
    pub start: u64,
    /// Instructions this shard contributed to the interval.
    pub len: u64,
    /// Un-normalised projected-space accumulator over those
    /// instructions (exact integer components).
    pub acc: Vec<f64>,
}

// ---------------------------------------------------------------------
// Fixed-length (fine) intervals
// ---------------------------------------------------------------------

/// Prefix tracker for the fixed-length slicer: after feeding it every
/// block before a segment, it knows where the interval spanning the
/// segment start begins and how much of it is already consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FineCutTracker {
    interval_len: u64,
    /// Global start of the currently open interval.
    start: u64,
    /// Instructions consumed in the open interval.
    count: u64,
}

impl FineCutTracker {
    /// Track cuts of `interval_len`-instruction intervals.
    ///
    /// # Panics
    ///
    /// Panics if `interval_len` is zero.
    pub fn new(interval_len: u64) -> FineCutTracker {
        assert!(interval_len > 0, "interval length must be positive");
        FineCutTracker { interval_len, start: 0, count: 0 }
    }

    /// Observe one block of `insts` instructions (the id is irrelevant
    /// to cut positions).
    #[inline]
    pub fn record(&mut self, insts: u64) {
        self.count += insts;
        if self.count >= self.interval_len {
            self.start += self.count;
            self.count = 0;
        }
    }

    /// Global start of the currently open interval.
    pub fn interval_start(&self) -> u64 {
        self.start
    }

    /// Instructions already consumed in the open interval.
    pub fn consumed(&self) -> u64 {
        self.count
    }
}

/// Shard-local fixed-length profiler: the counterpart of
/// [`FixedLengthProfiler`](crate::interval::FixedLengthProfiler) that
/// starts mid-trace (seeded by a [`FineCutTracker`]) and emits
/// [`RawInterval`] pieces instead of finished intervals.
#[derive(Debug)]
pub struct ShardFineProfiler<'a> {
    proj: &'a RandomProjection,
    interval_len: u64,
    acc: Vec<f64>,
    /// Instructions this shard added to the open interval.
    local_len: u64,
    /// Total instructions in the open interval, prefix-consumed
    /// included — the quantity the global cut rule tests.
    global_count: u64,
    piece_start: u64,
    pieces: Vec<RawInterval>,
}

impl<'a> ShardFineProfiler<'a> {
    /// Create a shard profiler aligned at `entry`'s position.
    pub fn new(
        proj: &'a RandomProjection,
        interval_len: u64,
        entry: &FineCutTracker,
    ) -> ShardFineProfiler<'a> {
        assert_eq!(entry.interval_len, interval_len, "tracker/profiler interval mismatch");
        ShardFineProfiler {
            proj,
            interval_len,
            acc: vec![0.0; proj.dim()],
            local_len: 0,
            global_count: entry.consumed(),
            piece_start: entry.interval_start(),
            pieces: Vec::new(),
        }
    }

    fn flush(&mut self) {
        if self.local_len > 0 {
            let acc = std::mem::replace(&mut self.acc, vec![0.0; self.proj.dim()]);
            self.pieces.push(RawInterval { start: self.piece_start, len: self.local_len, acc });
        }
        self.piece_start += self.global_count;
        self.global_count = 0;
        self.local_len = 0;
    }

    /// Record one executed block of `insts` instructions.
    #[inline]
    pub fn record(&mut self, id: BlockId, insts: u64) {
        self.proj.accumulate(id.index(), insts as f64, &mut self.acc);
        self.global_count += insts;
        self.local_len += insts;
        if self.global_count >= self.interval_len {
            self.flush();
        }
    }

    /// Close the trailing piece and return all pieces in trace order.
    pub fn finish(mut self) -> Vec<RawInterval> {
        if self.local_len > 0 {
            let acc = std::mem::take(&mut self.acc);
            self.pieces.push(RawInterval { start: self.piece_start, len: self.local_len, acc });
        }
        self.pieces
    }
}

/// Merge per-shard piece lists (in segment order) into the final
/// interval list, bit-identical to the monolithic profiler's output.
///
/// Consecutive pieces with equal `start` are contributions to the same
/// interval split by one or more segment boundaries; their lengths and
/// accumulators add exactly (integer components), after which
/// normalisation uses the same `× 1/len` the monolithic flush does.
pub fn merge_fine<I>(shards: I) -> Vec<Interval>
where
    I: IntoIterator<Item = Vec<RawInterval>>,
{
    let mut out: Vec<Interval> = Vec::new();
    let mut cur: Option<RawInterval> = None;
    for piece in shards.into_iter().flatten() {
        match &mut cur {
            Some(c) if c.start == piece.start => {
                c.len += piece.len;
                for (a, b) in c.acc.iter_mut().zip(&piece.acc) {
                    *a += b;
                }
            }
            _ => {
                if let Some(done) = cur.replace(piece) {
                    push_interval(&mut out, done);
                }
            }
        }
    }
    if let Some(done) = cur {
        push_interval(&mut out, done);
    }
    out
}

fn push_interval(out: &mut Vec<Interval>, raw: RawInterval) {
    debug_assert!(raw.len > 0, "empty merged interval");
    let inv = 1.0 / raw.len as f64;
    let vector: Vec<f64> = raw.acc.iter().map(|v| v * inv).collect();
    out.push(Interval { index: out.len(), start: raw.start, len: raw.len, vector });
}

// ---------------------------------------------------------------------
// Loop profiling
// ---------------------------------------------------------------------

/// Prefix tracker for the loop monitor: replays the stack transitions
/// of [`LoopMonitor`](crate::reference::LoopMonitor) — back-edge detection,
/// address-ordered pops, pushes — without statistics or attribution, so
/// it is O(1) amortised per block and allocation-light.
#[derive(Debug, Clone)]
pub struct LoopStackTracker<'p> {
    program: &'p Program,
    /// `(header, header_addr)` frames, outermost first.
    stack: Vec<(BlockId, u64)>,
    prev: Option<BlockId>,
}

impl<'p> LoopStackTracker<'p> {
    /// Start tracking at the beginning of the trace.
    pub fn new(program: &'p Program) -> LoopStackTracker<'p> {
        LoopStackTracker { program, stack: Vec::new(), prev: None }
    }

    /// Observe one block.
    #[inline]
    pub fn record(&mut self, id: BlockId) {
        if let Some(prev) = self.prev {
            if self.program.is_backward(prev, id) {
                let target_addr = self.program.block(id).addr;
                while let Some(&(_, addr)) = self.stack.last() {
                    if addr > target_addr {
                        self.stack.pop();
                    } else {
                        break;
                    }
                }
                match self.stack.last() {
                    Some(&(h, _)) if h == id => {}
                    _ => self.stack.push((id, target_addr)),
                }
            }
        }
        self.prev = Some(id);
    }
}

/// Per-shard tallies for one cyclic structure. The counters are plain
/// sums; `min_depth` is `None` when the shard never pushed the header
/// (it only iterated or attributed to a loop entered before its
/// segment), so merging takes the minimum over actual observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLoopStats {
    /// The loop-header block.
    pub header: BlockId,
    /// Instructions attributed while the loop was live in this shard.
    pub coverage_insts: u64,
    /// Back edges observed in this shard.
    pub back_edges: u64,
    /// Entries observed in this shard.
    pub entries: u64,
    /// Minimum push depth observed in this shard, if any.
    pub min_depth: Option<usize>,
}

/// One shard's loop-profile contribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLoopProfile {
    /// Per-structure tallies, sorted by header for determinism.
    pub stats: Vec<ShardLoopStats>,
    /// Instructions observed by this shard.
    pub total_insts: u64,
}

/// A live loop frame with the shard-local instruction count at the
/// moment it started receiving attribution (push, or shard entry for
/// seeded frames).
#[derive(Debug, Clone, Copy)]
struct ShardFrame {
    header: BlockId,
    addr: u64,
    start: u64,
}

/// Shard-local loop monitor: [`LoopMonitor`](crate::reference::LoopMonitor)
/// seeded with the live stack a [`LoopStackTracker`] reconstructed over
/// the segment's prefix.
///
/// Unlike the monolithic monitor — which walks the live stack on every
/// block to attribute instructions (O(depth) hash lookups per block) —
/// this one is O(1) amortised per block: a frame's coverage over one
/// live episode is the contiguous instruction range from its push to
/// its pop, so each frame carries a snapshot of the shard-local count
/// at push and settles `count_at_pop − count_at_push` when popped (or
/// at [`ShardLoopMonitor::finish`] if still live). The settled sums
/// equal the monolithic per-block attribution term for term, so the
/// merge stays bit-identical while the sharded pass drops the
/// profiling bottleneck.
#[derive(Debug)]
pub struct ShardLoopMonitor<'p> {
    program: &'p Program,
    stack: Vec<ShardFrame>,
    stats: HashMap<BlockId, ShardLoopStats>,
    prev: Option<BlockId>,
    total_insts: u64,
}

impl<'p> ShardLoopMonitor<'p> {
    /// Continue monitoring from `entry`'s position.
    pub fn new(entry: LoopStackTracker<'p>) -> ShardLoopMonitor<'p> {
        // Seeded frames need stats entries up front: iteration and
        // settling hit existing entries, exactly as in the monolithic
        // monitor where every live frame was pushed (and thus
        // registered) earlier in the trace. They start attributing at
        // shard-local count 0.
        let mut stats = HashMap::new();
        for &(h, _) in &entry.stack {
            stats.insert(
                h,
                ShardLoopStats {
                    header: h,
                    coverage_insts: 0,
                    back_edges: 0,
                    entries: 0,
                    min_depth: None,
                },
            );
        }
        let stack = entry
            .stack
            .iter()
            .map(|&(header, addr)| ShardFrame { header, addr, start: 0 })
            .collect();
        ShardLoopMonitor { program: entry.program, stack, stats, prev: entry.prev, total_insts: 0 }
    }

    /// Observe one block of `insts` instructions.
    #[inline]
    pub fn record(&mut self, id: BlockId, insts: u64) {
        // The monolithic monitor pops before attributing the block, so
        // a popped frame's episode ends at the count *before* this
        // block, while a pushed frame's episode starts there (it does
        // receive this block's instructions).
        let before = self.total_insts;
        self.total_insts += insts;
        if let Some(prev) = self.prev {
            if self.program.is_backward(prev, id) {
                let target_addr = self.program.block(id).addr;
                while let Some(top) = self.stack.last() {
                    if top.addr > target_addr {
                        let f = self.stack.pop().expect("just peeked");
                        self.stats
                            .get_mut(&f.header)
                            .expect("live frame has stats")
                            .coverage_insts += before - f.start;
                    } else {
                        break;
                    }
                }
                match self.stack.last() {
                    Some(top) if top.header == id => {
                        let s = self.stats.get_mut(&id).expect("live frame has stats");
                        s.back_edges += 1;
                    }
                    _ => {
                        let depth = self.stack.len();
                        let e = self.stats.entry(id).or_insert(ShardLoopStats {
                            header: id,
                            coverage_insts: 0,
                            back_edges: 0,
                            entries: 0,
                            min_depth: None,
                        });
                        e.entries += 1;
                        e.back_edges += 1;
                        e.min_depth = Some(e.min_depth.map_or(depth, |d| d.min(depth)));
                        self.stack.push(ShardFrame {
                            header: id,
                            addr: target_addr,
                            start: before,
                        });
                    }
                }
            }
        }
        self.prev = Some(id);
    }

    /// Finish the shard and return its tallies.
    pub fn finish(mut self) -> ShardLoopProfile {
        // Settle the episodes still open at the segment's end: a live
        // frame was attributed everything from its snapshot onward.
        for f in &self.stack {
            self.stats.get_mut(&f.header).expect("live frame has stats").coverage_insts +=
                self.total_insts - f.start;
        }
        let mut stats: Vec<ShardLoopStats> = self.stats.into_values().collect();
        stats.sort_by_key(|s| s.header);
        // A seeded frame the shard neither pushed nor attributed to is
        // impossible (seeded frames are live, so the very first block
        // attributes to them) — but an empty segment produces no
        // records at all; drop tallies that observed nothing so empty
        // shards merge as no-ops.
        stats.retain(|s| {
            s.coverage_insts > 0 || s.back_edges > 0 || s.entries > 0 || s.min_depth.is_some()
        });
        ShardLoopProfile { stats, total_insts: self.total_insts }
    }
}

/// Merge per-shard loop tallies (in segment order) into a
/// [`LoopProfile`] bit-identical to the monolithic monitor's: counters
/// add, `min_depth` is the minimum over shards that pushed the header,
/// and the final sort is the monolithic one (depth, coverage
/// descending, header).
pub fn merge_loops<I>(shards: I) -> LoopProfile
where
    I: IntoIterator<Item = ShardLoopProfile>,
{
    let mut stats: HashMap<BlockId, CyclicStructure> = HashMap::new();
    let mut total_insts = 0u64;
    for shard in shards {
        total_insts += shard.total_insts;
        for s in shard.stats {
            let e = stats.entry(s.header).or_insert(CyclicStructure {
                header: s.header,
                coverage_insts: 0,
                back_edges: 0,
                entries: 0,
                min_depth: usize::MAX,
            });
            e.coverage_insts += s.coverage_insts;
            e.back_edges += s.back_edges;
            e.entries += s.entries;
            if let Some(d) = s.min_depth {
                e.min_depth = e.min_depth.min(d);
            }
        }
    }
    let mut structures: Vec<CyclicStructure> = stats.into_values().collect();
    // Every structure was pushed in the shard that first discovered it
    // (a frame live at a segment boundary was pushed inside an earlier
    // segment, by induction down to shard 0's empty seed stack).
    debug_assert!(structures.iter().all(|s| s.min_depth != usize::MAX));
    structures.sort_by(|a, b| {
        a.min_depth
            .cmp(&b.min_depth)
            .then(b.coverage_insts.cmp(&a.coverage_insts))
            .then(a.header.cmp(&b.header))
    });
    LoopProfile { structures, total_insts }
}

// ---------------------------------------------------------------------
// Boundary (loop-iteration) intervals
// ---------------------------------------------------------------------

/// Prefix tracker for the boundary slicer: where the interval spanning
/// the segment start begins (the last header entry before it, or 0),
/// how much is consumed, and where the first header entry of the trace
/// lies if the prefix contains one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundaryTracker {
    header: BlockId,
    start: u64,
    count: u64,
    first_header_pos: Option<u64>,
}

impl BoundaryTracker {
    /// Track intervals cut at entries of `header`.
    pub fn new(header: BlockId) -> BoundaryTracker {
        BoundaryTracker { header, start: 0, count: 0, first_header_pos: None }
    }

    /// Observe one block of `insts` instructions.
    #[inline]
    pub fn record(&mut self, id: BlockId, insts: u64) {
        if id == self.header {
            if self.first_header_pos.is_none() {
                self.first_header_pos = Some(self.start + self.count);
            }
            self.start += self.count;
            self.count = 0;
        }
        self.count += insts;
    }
}

/// Shard-local boundary profiler seeded by a [`BoundaryTracker`]; emits
/// [`RawInterval`] pieces plus the global position of the first header
/// entry the shard itself observed (for the merged prologue flag).
#[derive(Debug)]
pub struct ShardBoundaryProfiler<'a> {
    proj: &'a RandomProjection,
    header: BlockId,
    acc: Vec<f64>,
    local_len: u64,
    global_count: u64,
    piece_start: u64,
    pieces: Vec<RawInterval>,
    first_header_pos: Option<u64>,
}

impl<'a> ShardBoundaryProfiler<'a> {
    /// Create a shard profiler aligned at `entry`'s position.
    pub fn new(proj: &'a RandomProjection, entry: &BoundaryTracker) -> ShardBoundaryProfiler<'a> {
        ShardBoundaryProfiler {
            proj,
            header: entry.header,
            acc: vec![0.0; proj.dim()],
            local_len: 0,
            global_count: entry.count,
            piece_start: entry.start,
            pieces: Vec::new(),
            first_header_pos: None,
        }
    }

    /// Record one executed block of `insts` instructions.
    #[inline]
    pub fn record(&mut self, id: BlockId, insts: u64) {
        if id == self.header {
            if self.first_header_pos.is_none() {
                self.first_header_pos = Some(self.piece_start + self.global_count);
            }
            if self.local_len > 0 {
                let acc = std::mem::replace(&mut self.acc, vec![0.0; self.proj.dim()]);
                self.pieces.push(RawInterval { start: self.piece_start, len: self.local_len, acc });
            }
            self.piece_start += self.global_count;
            self.global_count = 0;
            self.local_len = 0;
        }
        self.proj.accumulate(id.index(), insts as f64, &mut self.acc);
        self.global_count += insts;
        self.local_len += insts;
    }

    /// Close the trailing piece and return `(pieces, first header
    /// position this shard observed)`.
    pub fn finish(mut self) -> (Vec<RawInterval>, Option<u64>) {
        if self.local_len > 0 {
            let acc = std::mem::take(&mut self.acc);
            self.pieces.push(RawInterval { start: self.piece_start, len: self.local_len, acc });
        }
        (self.pieces, self.first_header_pos)
    }
}

/// Merge per-shard boundary pieces (in segment order) into the final
/// `(intervals, has_prologue)` pair, bit-identical to the monolithic
/// [`BoundaryProfiler`](crate::reference::BoundaryProfiler): pieces
/// merge like fine intervals, and the trace has a prologue iff the
/// earliest header entry any shard observed lies past position 0.
pub fn merge_boundary<I>(shards: I) -> (Vec<Interval>, bool)
where
    I: IntoIterator<Item = (Vec<RawInterval>, Option<u64>)>,
{
    let mut pieces = Vec::new();
    let mut first_header: Option<u64> = None;
    for (shard_pieces, pos) in shards {
        if first_header.is_none() {
            first_header = pos;
        }
        pieces.push(shard_pieces);
    }
    (merge_fine(pieces), first_header.is_some_and(|p| p > 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::{validate_intervals, FixedLengthProfiler};
    use crate::reference::{BoundaryProfiler, LoopMonitor};
    use mlpa_isa::stream::InstructionStream;
    use mlpa_workloads::{spec::BenchmarkSpec, CompiledBenchmark, WorkloadStream};

    fn block_seq(cb: &CompiledBenchmark) -> Vec<(BlockId, u64)> {
        let mut s = WorkloadStream::new(cb);
        let mut scratch = Vec::new();
        let mut seq = Vec::new();
        while let Some(m) = s.next_block_meta(&mut scratch) {
            seq.push((m.id, m.insts));
        }
        seq
    }

    fn compiled() -> CompiledBenchmark {
        CompiledBenchmark::compile(&BenchmarkSpec::default()).unwrap()
    }

    /// Split `seq` at block indices `cuts` and profile each segment
    /// with tracker-seeded shard profilers.
    fn shard_fine(
        seq: &[(BlockId, u64)],
        cuts: &[usize],
        proj: &RandomProjection,
        len: u64,
    ) -> Vec<Interval> {
        let mut bounds = vec![0];
        bounds.extend_from_slice(cuts);
        bounds.push(seq.len());
        let mut shards = Vec::new();
        for w in bounds.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let mut tracker = FineCutTracker::new(len);
            for &(_, n) in &seq[..lo] {
                tracker.record(n);
            }
            let mut prof = ShardFineProfiler::new(proj, len, &tracker);
            for &(id, n) in &seq[lo..hi] {
                prof.record(id, n);
            }
            shards.push(prof.finish());
        }
        merge_fine(shards)
    }

    #[test]
    fn fine_shards_merge_bit_identical() {
        let cb = compiled();
        let seq = block_seq(&cb);
        let proj = RandomProjection::new(cb.program().num_blocks(), 15, 1);
        let mut mono = FixedLengthProfiler::new(&proj, 10_000);
        for &(id, n) in &seq {
            mono.record(id, n);
        }
        let expect = mono.finish();
        validate_intervals(&expect).unwrap();

        let n = seq.len();
        for cuts in [vec![], vec![n / 2], vec![n / 7, n / 3, n / 2, 2 * n / 3, n - 1]] {
            let got = shard_fine(&seq, &cuts, &proj, 10_000);
            assert_eq!(got, expect, "cuts {cuts:?}");
        }
    }

    #[test]
    fn fine_shards_handle_segments_inside_one_interval() {
        // Consecutive cuts one block apart force segments far smaller
        // than an interval: chains of same-start pieces must coalesce.
        let cb = compiled();
        let seq = block_seq(&cb);
        let proj = RandomProjection::new(cb.program().num_blocks(), 15, 1);
        let mut mono = FixedLengthProfiler::new(&proj, 50_000);
        for &(id, n) in &seq {
            mono.record(id, n);
        }
        let expect = mono.finish();
        let cuts: Vec<usize> = (100..140).collect();
        assert_eq!(shard_fine(&seq, &cuts, &proj, 50_000), expect);
    }

    #[test]
    fn loop_shards_merge_bit_identical() {
        let cb = compiled();
        let seq = block_seq(&cb);
        use mlpa_sim::functional::Observer;
        let mut mono = LoopMonitor::new(cb.program());
        for &(id, n) in &seq {
            // Drive the monitor's transition logic with a synthesized
            // slice of the right length (contents are irrelevant).
            let insts = vec![mlpa_isa::Instruction::nop(); n as usize];
            mono.on_block(id, &insts, 0);
        }
        let expect = mono.finish();

        let n = seq.len();
        for cuts in [vec![n / 2], vec![1, 2, n / 5, n / 2, n - 2]] {
            let mut bounds = vec![0];
            bounds.extend_from_slice(&cuts);
            bounds.push(n);
            let mut shards = Vec::new();
            for w in bounds.windows(2) {
                let mut tracker = LoopStackTracker::new(cb.program());
                for &(id, _) in &seq[..w[0]] {
                    tracker.record(id);
                }
                let mut mon = ShardLoopMonitor::new(tracker);
                for &(id, len) in &seq[w[0]..w[1]] {
                    mon.record(id, len);
                }
                shards.push(mon.finish());
            }
            let got = merge_loops(shards);
            assert_eq!(got, expect, "cuts {cuts:?}");
        }
    }

    #[test]
    fn boundary_shards_merge_bit_identical() {
        let cb = compiled();
        let seq = block_seq(&cb);
        let proj = RandomProjection::new(cb.program().num_blocks(), 15, 1);
        let header = cb.outer_header();
        let mut mono = BoundaryProfiler::new(&proj, header);
        for &(id, n) in &seq {
            mono.record(id, n);
        }
        let expect_prologue = mono.has_prologue();
        let expect = mono.finish();

        let n = seq.len();
        for cuts in [vec![], vec![n / 3], vec![1, n / 4, n / 2, 3 * n / 4]] {
            let mut bounds = vec![0];
            bounds.extend_from_slice(&cuts);
            bounds.push(n);
            let mut shards = Vec::new();
            for w in bounds.windows(2) {
                let mut tracker = BoundaryTracker::new(header);
                for &(id, len) in &seq[..w[0]] {
                    tracker.record(id, len);
                }
                let mut prof = ShardBoundaryProfiler::new(&proj, &tracker);
                for &(id, len) in &seq[w[0]..w[1]] {
                    prof.record(id, len);
                }
                shards.push(prof.finish());
            }
            let (got, prologue) = merge_boundary(shards);
            assert_eq!(got, expect, "cuts {cuts:?}");
            assert_eq!(prologue, expect_prologue, "cuts {cuts:?}");
        }
    }

    #[test]
    fn empty_segments_merge_as_noops() {
        let cb = compiled();
        let seq = block_seq(&cb);
        let proj = RandomProjection::new(cb.program().num_blocks(), 15, 1);
        let mut mono = FixedLengthProfiler::new(&proj, 10_000);
        for &(id, n) in &seq {
            mono.record(id, n);
        }
        let expect = mono.finish();
        // Duplicate cut positions create zero-length segments.
        let n = seq.len();
        assert_eq!(shard_fine(&seq, &[n / 2, n / 2, n / 2], &proj, 10_000), expect);
    }
}
