//! Shared plumbing: projection settings, profiling passes, and the
//! fine-grained (SimPoint-baseline) plan builder.

use std::sync::Arc;

use crate::artifact::{Artifact, BoundaryArtifact, BoundaryShardArtifact, ProfileShardArtifact};
use crate::cache::{ArtifactCache, CacheKey};
use crate::plan::{PlanPoint, SimulationPlan};
use mlpa_isa::stream::InstructionStream;
use mlpa_isa::BlockId;
use mlpa_phase::interval::Interval;
use mlpa_phase::loops::LoopProfile;
use mlpa_phase::project::RandomProjection;
use mlpa_phase::shard::{
    merge_boundary, merge_fine, merge_loops, BoundaryTracker, FineCutTracker, LoopStackTracker,
    ShardBoundaryProfiler, ShardFineProfiler, ShardLoopMonitor,
};
use mlpa_phase::simpoint::{select, SimPointConfig, SimPoints};
use mlpa_workloads::{CompiledBenchmark, WorkloadStream};

/// The scaled fine-grained interval length: the paper's 10 M
/// instructions at the repo's 1000× scale-down.
pub const FINE_INTERVAL: u64 = 10_000;

/// The scaled multi-level re-sampling threshold: the paper's
/// 10 M × Kmax(30) = 300 M instructions, scaled.
pub const RESAMPLE_THRESHOLD: u64 = 300_000;

/// Random-projection settings shared by all profiling passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProjectionSettings {
    /// Output dimensionality (SimPoint uses 15).
    pub dim: usize,
    /// Seed of the projection matrix.
    pub seed: u64,
}

impl Default for ProjectionSettings {
    fn default() -> Self {
        ProjectionSettings { dim: mlpa_phase::project::DEFAULT_DIM, seed: 0x5349_4D50 }
    }
}

impl ProjectionSettings {
    /// Materialise the projection for a benchmark's program.
    pub fn build(&self, cb: &CompiledBenchmark) -> RandomProjection {
        RandomProjection::new(cb.program().num_blocks(), self.dim, self.seed)
    }
}

/// Cached products of one boundary-profiling pass.
#[derive(Debug, Clone)]
struct BoundaryPass {
    header: BlockId,
    has_prologue: bool,
    intervals: Vec<Interval>,
}

/// One profiling product's trace walk, cut into segments: O(1)-per-block
/// trackers carry the walk's state across every segment boundary, and
/// each segment that is profiled (not restored from a checkpoint) gets
/// shard profilers seeded from them.
trait SegmentWalk {
    /// What one segment produces; also its checkpoint.
    type Shard: Artifact;
    /// Advance the trackers over one block.
    fn track(&mut self, id: BlockId, insts: u64);
    /// Seed this segment's shard profilers at the current position.
    fn begin(&mut self);
    /// Feed one block to the shard profilers (not the trackers).
    fn record(&mut self, id: BlockId, insts: u64);
    /// Close the segment's shard profilers.
    fn end(&mut self) -> Self::Shard;
}

/// The combined walk: loop profile and fine intervals together.
struct BaseWalk<'a> {
    projection: &'a RandomProjection,
    fine_interval: u64,
    fine_t: FineCutTracker,
    loop_t: LoopStackTracker<'a>,
    shard: Option<(ShardFineProfiler<'a>, ShardLoopMonitor<'a>)>,
}

impl SegmentWalk for BaseWalk<'_> {
    type Shard = ProfileShardArtifact;

    fn track(&mut self, id: BlockId, insts: u64) {
        self.fine_t.record(insts);
        self.loop_t.record(id);
    }

    fn begin(&mut self) {
        self.shard = Some((
            ShardFineProfiler::new(self.projection, self.fine_interval, &self.fine_t),
            ShardLoopMonitor::new(self.loop_t.clone()),
        ));
    }

    fn record(&mut self, id: BlockId, insts: u64) {
        let (fine, loops) = self.shard.as_mut().expect("segment begun");
        fine.record(id, insts);
        loops.record(id, insts);
    }

    fn end(&mut self) -> ProfileShardArtifact {
        let (fine, loops) = self.shard.take().expect("segment begun");
        ProfileShardArtifact { pieces: fine.finish(), loops: loops.finish() }
    }
}

/// The boundary walk: intervals cut at entries of one header block.
struct BoundaryWalk<'a> {
    projection: &'a RandomProjection,
    tracker: BoundaryTracker,
    shard: Option<ShardBoundaryProfiler<'a>>,
}

impl SegmentWalk for BoundaryWalk<'_> {
    type Shard = BoundaryShardArtifact;

    fn track(&mut self, id: BlockId, insts: u64) {
        self.tracker.record(id, insts);
    }

    fn begin(&mut self) {
        self.shard = Some(ShardBoundaryProfiler::new(self.projection, &self.tracker));
    }

    fn record(&mut self, id: BlockId, insts: u64) {
        self.shard.as_mut().expect("segment begun").record(id, insts);
    }

    fn end(&mut self) -> BoundaryShardArtifact {
        let (pieces, first_header_pos) = self.shard.take().expect("segment begun").finish();
        BoundaryShardArtifact { pieces, first_header_pos }
    }
}

/// Shared profiling context: one projection and a cache of every
/// whole-trace profiling walk over a benchmark, so the three sampling
/// stages (fine baseline, COASTS, multi-level) stop re-streaming the
/// trace for information an earlier stage already collected.
///
/// Two walks cover every stage: the combined walk collects the loop
/// profile and the fine intervals together, whichever of
/// [`ProfilingContext::prepare`], [`ProfilingContext::loop_profile`] or
/// [`ProfilingContext::fine_intervals`] asks first, and the boundary
/// walk runs once per header. Both are metadata walks over the stream
/// (no instruction is materialised) feeding O(1)-per-block profilers.
///
/// # Example
///
/// ```
/// use mlpa_core::coasts::{coasts_with, CoastsConfig};
/// use mlpa_core::pipeline::{ProfilingContext, FINE_INTERVAL};
/// use mlpa_workloads::{spec::BenchmarkSpec, CompiledBenchmark};
///
/// let cb = CompiledBenchmark::compile(&BenchmarkSpec::default())?;
/// let mut ctx = ProfilingContext::new(&cb, Default::default(), FINE_INTERVAL);
/// ctx.prepare();
/// let out = coasts_with(&mut ctx, &CoastsConfig::default())?;
/// assert!(out.plan.len() >= 1);
/// # Ok::<(), String>(())
/// ```
#[derive(Debug)]
pub struct ProfilingContext<'b> {
    cb: &'b CompiledBenchmark,
    settings: ProjectionSettings,
    projection: RandomProjection,
    fine_interval: u64,
    loop_profile: Option<LoopProfile>,
    fine_intervals: Option<Vec<Interval>>,
    boundary: Option<BoundaryPass>,
    cache: Option<Arc<ArtifactCache>>,
    /// Trace segments per profiling walk.
    shards: usize,
}

impl<'b> ProfilingContext<'b> {
    /// Create an empty context for `cb`; `fine_interval` is the length
    /// used by [`ProfilingContext::fine_intervals`].
    pub fn new(
        cb: &'b CompiledBenchmark,
        settings: ProjectionSettings,
        fine_interval: u64,
    ) -> ProfilingContext<'b> {
        ProfilingContext {
            cb,
            settings,
            projection: settings.build(cb),
            fine_interval,
            loop_profile: None,
            fine_intervals: None,
            boundary: None,
            cache: None,
            shards: 1,
        }
    }

    /// Cut each profiling walk into `shards` trace segments (default 1).
    /// The merged products are bit-identical for every count — pinned
    /// by `sharded_profiling.rs` and the `mlpa-phase` property tests —
    /// so this only sets checkpoint granularity: with an attached cache,
    /// a walk of more than one segment stores each finished segment,
    /// and a killed run resumes at the first missing one.
    pub fn set_shards(&mut self, shards: usize) {
        self.shards = shards.max(1);
    }

    /// Attach an artifact cache: every profiling pass first consults it
    /// and stores its product after computing. A warm cache makes all
    /// of this context's passes no-ops.
    pub fn set_cache(&mut self, cache: Arc<ArtifactCache>) {
        self.cache = Some(cache);
    }

    /// The attached artifact cache, if any.
    pub fn cache(&self) -> Option<Arc<ArtifactCache>> {
        self.cache.clone()
    }

    /// The benchmark this context profiles.
    pub fn benchmark(&self) -> &'b CompiledBenchmark {
        self.cb
    }

    fn loop_key(&self) -> CacheKey {
        // The loop profile depends only on the trace, not on the
        // projection or interval length.
        CacheKey::new().field("spec", self.cb.spec())
    }

    fn fine_key(&self) -> CacheKey {
        CacheKey::new()
            .field("spec", self.cb.spec())
            .field("projection", &self.settings)
            .field("interval", &self.fine_interval)
    }

    fn boundary_key(&self, header: BlockId) -> CacheKey {
        CacheKey::new()
            .field("spec", self.cb.spec())
            .field("projection", &self.settings)
            .field("header", &header.raw())
    }

    /// Checkpoint key of segment `k` of the combined walk. The segment
    /// count is part of the key: segment boundaries derive from it, so
    /// segments of different partitions are not interchangeable (their
    /// *merge* is identical, their pieces are not).
    fn profile_shard_key(&self, k: usize) -> CacheKey {
        self.fine_key().field("shards", &self.shards).field("shard", &k)
    }

    fn boundary_shard_key(&self, header: BlockId, k: usize) -> CacheKey {
        self.boundary_key(header).field("shards", &self.shards).field("shard", &k)
    }

    /// The shared projection matrix.
    pub fn projection(&self) -> &RandomProjection {
        &self.projection
    }

    /// The projection settings the context was built with.
    pub fn settings(&self) -> ProjectionSettings {
        self.settings
    }

    /// Collect the loop profile and the fine intervals (from the cache,
    /// or with one combined walk). The lazy getters call this too, so
    /// calling it up front only fixes when the walk happens.
    pub fn prepare(&mut self) {
        if self.loop_profile.is_some() && self.fine_intervals.is_some() {
            return;
        }
        if let Some(cache) = &self.cache {
            if self.loop_profile.is_none() {
                self.loop_profile = cache.get::<LoopProfile>(&self.loop_key());
            }
            if self.fine_intervals.is_none() {
                self.fine_intervals = cache.get::<Vec<Interval>>(&self.fine_key());
            }
            if self.loop_profile.is_some() && self.fine_intervals.is_some() {
                return;
            }
        }
        let _span = mlpa_obs::span("core.profile.base_pass");
        mlpa_obs::add("core.profile.base_passes", 1);
        let walk = BaseWalk {
            projection: &self.projection,
            fine_interval: self.fine_interval,
            fine_t: FineCutTracker::new(self.fine_interval),
            loop_t: LoopStackTracker::new(self.cb.program()),
            shard: None,
        };
        let (pieces, loops): (Vec<_>, Vec<_>) = self
            .walk_segments(walk, |k| self.profile_shard_key(k))
            .into_iter()
            .map(|a| (a.pieces, a.loops))
            .unzip();
        let intervals = merge_fine(pieces);
        let profile = merge_loops(loops);
        if let Some(cache) = &self.cache {
            cache.put(&self.loop_key(), &profile);
            cache.put(&self.fine_key(), &intervals);
        }
        self.loop_profile = Some(profile);
        self.fine_intervals = Some(intervals);
    }

    /// Segment targets for an `N`-way partition of the trace: segment
    /// `k` owns blocks whose first instruction lands in
    /// `[targets[k], targets[k+1])`. Targets derive from the spec's
    /// nominal length (O(1) — no trace-length pre-pass); the last
    /// segment absorbs the generator's stochastic drift by running to
    /// the end of the stream. Both sides of every boundary apply the
    /// same rule, so the partition is exact, gap-free, and overlap-free
    /// for any actual trace length.
    fn shard_targets(&self) -> Vec<u64> {
        let shards = self.shards as u64;
        let nominal = self.cb.spec().nominal_insts().max(1);
        let mut t: Vec<u64> = (0..shards).map(|k| k * nominal / shards).collect();
        t.push(u64::MAX);
        t
    }

    /// Stream the trace once, segment by segment, carrying `walk`'s
    /// trackers continuously and profiling each segment with freshly
    /// seeded shard profilers; the shards merge bit-identically to one
    /// unsegmented profile. A walk of more than one segment checkpoints
    /// every segment under `checkpoint(k)` in the attached cache, and a
    /// checkpointed segment is only tracked, not profiled, so a killed
    /// run resumes at the first missing segment. (One segment's
    /// checkpoint would duplicate the merged artifact.)
    fn walk_segments<W: SegmentWalk>(
        &self,
        mut walk: W,
        checkpoint: impl Fn(usize) -> CacheKey,
    ) -> Vec<W::Shard> {
        let shards = self.shards;
        let targets = self.shard_targets();
        let store = self.cache.as_deref().filter(|_| shards > 1);
        let mut stream = WorkloadStream::new(self.cb);
        let mut scratch = Vec::new();
        let mut out = Vec::with_capacity(shards);
        for k in 0..shards {
            let t_end = targets[k + 1];
            let key = store.map(|c| (c, checkpoint(k)));
            if let Some(a) = key.as_ref().and_then(|(c, key)| c.get::<W::Shard>(key)) {
                mlpa_obs::add("core.profile.shard_resumes", 1);
                while stream.emitted() < t_end {
                    let Some(m) = stream.next_block_meta(&mut scratch) else { break };
                    walk.track(m.id, m.insts);
                }
                out.push(a);
                continue;
            }
            let _span = mlpa_obs::span("core.profile.shard");
            mlpa_obs::add("core.profile.shards_run", 1);
            // Segment progress is only news with more than one segment.
            if shards > 1 {
                mlpa_obs::gauge_set("core.shard.total", shards as u64);
                mlpa_obs::gauge_set("core.shard.segment", k as u64);
            }
            walk.begin();
            while stream.emitted() < t_end {
                let Some(m) = stream.next_block_meta(&mut scratch) else { break };
                walk.track(m.id, m.insts);
                walk.record(m.id, m.insts);
            }
            let a = walk.end();
            if let Some((c, key)) = &key {
                c.put(key, &a);
            }
            out.push(a);
        }
        out
    }

    /// The loop (cyclic-structure) profile of the trace.
    pub fn loop_profile(&mut self) -> &LoopProfile {
        if self.loop_profile.is_none() {
            self.prepare();
        }
        self.loop_profile.as_ref().expect("just prepared")
    }

    /// Fixed-length intervals at the context's fine interval length.
    pub fn fine_intervals(&mut self) -> &[Interval] {
        if self.fine_intervals.is_none() {
            self.prepare();
        }
        self.fine_intervals.as_ref().expect("just prepared")
    }

    /// Variable-length intervals cut at iterations of the cyclic
    /// structure headed by `header`, plus whether the trace has a
    /// prologue before the first header entry. Cached per header.
    pub fn boundary_intervals(&mut self, header: BlockId) -> (&[Interval], bool) {
        let stale = self.boundary.as_ref().is_none_or(|b| b.header != header);
        if stale {
            if let Some(cache) = &self.cache {
                if let Some(b) = cache.get::<BoundaryArtifact>(&self.boundary_key(header)) {
                    self.boundary = Some(BoundaryPass {
                        header: BlockId::new(b.header),
                        has_prologue: b.has_prologue,
                        intervals: b.intervals,
                    });
                }
            }
        }
        let stale = self.boundary.as_ref().is_none_or(|b| b.header != header);
        if stale {
            let _span = mlpa_obs::span("core.profile.boundary_pass");
            mlpa_obs::add("core.profile.boundary_passes", 1);
            let walk = BoundaryWalk {
                projection: &self.projection,
                tracker: BoundaryTracker::new(header),
                shard: None,
            };
            let shards = self.walk_segments(walk, |k| self.boundary_shard_key(header, k));
            let (intervals, has_prologue) =
                merge_boundary(shards.into_iter().map(|a| (a.pieces, a.first_header_pos)));
            if let Some(cache) = &self.cache {
                cache.put(
                    &self.boundary_key(header),
                    &BoundaryArtifact {
                        header: header.raw(),
                        has_prologue,
                        intervals: intervals.clone(),
                    },
                );
            }
            self.boundary = Some(BoundaryPass { header, has_prologue, intervals });
        }
        let b = self.boundary.as_ref().expect("just computed");
        (&b.intervals, b.has_prologue)
    }
}

/// Measure a benchmark's exact trace length (total instruction count)
/// with one metadata drain of the stream: all control-flow draws run,
/// but no instruction words are materialised, so this costs a fraction
/// of a functional pass. `CompiledBenchmark` does not record the length
/// statically, so plan/trace compatibility checks (see
/// [`crate::estimate::execute_plan_checked`]) measure it here.
pub fn trace_insts(cb: &CompiledBenchmark) -> u64 {
    let _span = mlpa_obs::span("core.profile.trace_len");
    mlpa_isa::stream::drain_meta_count(WorkloadStream::new(cb)).instructions
}

/// Convert selected simulation points into an executable plan.
///
/// # Errors
///
/// Propagates [`SimulationPlan::new`]'s validation errors (they indicate
/// a profiler or selector bug, not user error).
pub fn plan_from_points(sp: &SimPoints) -> Result<SimulationPlan, String> {
    let points = sp
        .points
        .iter()
        .map(|p| PlanPoint { start: p.start, len: p.len, weight: p.weight })
        .collect();
    SimulationPlan::new(points, sp.total_insts)
}

/// Outcome of a fine-grained (SimPoint-baseline) selection.
#[derive(Debug, Clone, PartialEq)]
pub struct FineOutcome {
    /// The executable plan.
    pub plan: SimulationPlan,
    /// The raw selection (clusters, BIC diagnostics).
    pub simpoints: SimPoints,
    /// Interval length used.
    pub interval_len: u64,
}

/// The paper's baseline: fixed-length SimPoint (10 M-equivalent
/// intervals, `Kmax = 30`).
///
/// # Errors
///
/// Returns an error if the trace is empty (a spec that generates no
/// instructions).
///
/// # Example
///
/// ```
/// use mlpa_core::pipeline::{simpoint_baseline, ProjectionSettings, FINE_INTERVAL};
/// use mlpa_phase::simpoint::SimPointConfig;
/// use mlpa_workloads::{spec::BenchmarkSpec, CompiledBenchmark};
///
/// let cb = CompiledBenchmark::compile(&BenchmarkSpec::default())?;
/// let out = simpoint_baseline(
///     &cb,
///     FINE_INTERVAL,
///     &SimPointConfig::fine_10m(),
///     &ProjectionSettings::default(),
/// )?;
/// assert!(out.plan.len() >= 1);
/// # Ok::<(), String>(())
/// ```
pub fn simpoint_baseline(
    cb: &CompiledBenchmark,
    interval_len: u64,
    cfg: &SimPointConfig,
    proj: &ProjectionSettings,
) -> Result<FineOutcome, String> {
    let mut ctx = ProfilingContext::new(cb, *proj, interval_len);
    simpoint_baseline_with(&mut ctx, cfg)
}

/// [`simpoint_baseline`] on a shared [`ProfilingContext`]: reuses (or
/// populates) the context's fine-interval profile instead of running a
/// dedicated functional pass. The interval length is the context's.
///
/// # Errors
///
/// Returns an error if the trace is empty (a spec that generates no
/// instructions).
pub fn simpoint_baseline_with(
    ctx: &mut ProfilingContext<'_>,
    cfg: &SimPointConfig,
) -> Result<FineOutcome, String> {
    let _span = mlpa_obs::span("core.select.fine");
    let cache = ctx.cache();
    let key = cache.as_ref().map(|_| ctx.fine_key().field("selection", cfg));
    if let (Some(c), Some(k)) = (&cache, &key) {
        if let Some(out) = c.get::<FineOutcome>(k) {
            return Ok(out);
        }
    }
    let interval_len = ctx.fine_interval;
    let intervals = ctx.fine_intervals();
    if intervals.is_empty() {
        return Err(format!("benchmark {} produced an empty trace", ctx.cb.spec().name));
    }
    mlpa_obs::add("core.profile.fine_intervals", intervals.len() as u64);
    let simpoints = select(intervals, cfg);
    let plan = plan_from_points(&simpoints)?;
    let out = FineOutcome { plan, simpoints, interval_len };
    if let (Some(c), Some(k)) = (&cache, &key) {
        c.put(k, &out);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpa_workloads::spec::{BenchmarkSpec, PhaseSpec, ScriptEntry};

    fn two_phase_cb() -> CompiledBenchmark {
        let spec = BenchmarkSpec {
            phases: vec![
                PhaseSpec { name: "a".into(), ..PhaseSpec::default() },
                PhaseSpec { name: "b".into(), ..PhaseSpec::default() },
            ],
            script: (0..8).map(|i| ScriptEntry::new(i % 2, 50_000)).collect(),
            ..BenchmarkSpec::default()
        };
        CompiledBenchmark::compile(&spec).unwrap()
    }

    #[test]
    fn baseline_produces_valid_plan() {
        let cb = two_phase_cb();
        let out = simpoint_baseline(
            &cb,
            FINE_INTERVAL,
            &mlpa_phase::simpoint::SimPointConfig::fine_10m(),
            &ProjectionSettings::default(),
        )
        .unwrap();
        assert!(out.plan.len() >= 2, "two phases need at least two points");
        assert!(out.plan.detail_fraction() < 0.5);
        // Fine plan points are one interval long (the trailing partial
        // interval may be shorter).
        let total = out.plan.total_insts();
        for p in out.plan.points() {
            assert!(p.len < FINE_INTERVAL + 200);
            assert!(p.len >= FINE_INTERVAL || p.end() == total, "short non-final point");
        }
    }

    #[test]
    fn scaled_constants_match_paper_ratios() {
        // 10 M / 1000 and 10 M × 30 / 1000.
        assert_eq!(FINE_INTERVAL, 10_000);
        assert_eq!(RESAMPLE_THRESHOLD, 30 * FINE_INTERVAL);
    }

    #[test]
    fn projection_settings_are_stable() {
        let cb = two_phase_cb();
        let a = ProjectionSettings::default().build(&cb);
        let b = ProjectionSettings::default().build(&cb);
        let raw = vec![1.0; cb.program().num_blocks()];
        assert_eq!(a.project(&raw), b.project(&raw));
    }

    #[test]
    fn plan_matches_simpoints_accounting() {
        let cb = two_phase_cb();
        let out = simpoint_baseline(
            &cb,
            FINE_INTERVAL,
            &mlpa_phase::simpoint::SimPointConfig::fine_10m(),
            &ProjectionSettings::default(),
        )
        .unwrap();
        assert_eq!(out.plan.detailed_insts(), out.simpoints.detailed_insts());
        assert!((out.plan.last_position() - out.simpoints.last_position()).abs() < 1e-12);
    }
}
