//! One run of one workload: set-ups, the timed op window, the campaign
//! front door, the accuracy comparison and the correctness gate — plus, on
//! a traced run, the spans and layer replays.
//!
//! **Load model.** Closed loop, one caller, one process per workload (so
//! `VmHWM` is per workload), worker pool pinned to one worker: a run is one
//! busy thread from start to end. An *op* is exactly the campaign job
//! body: solve + `sample_midplane` + FNV checksum. Ops fill `--seconds`
//! (at least [`Sizes::min_ops`](crate::workload::Sizes)), in slices that
//! alternate with the set-ups and campaign passes; every timed sample lies
//! between two host-speed probes ([`crate::calib`]) and is reported at
//! reference speed. End-to-end numbers are only ever taken with tracing
//! off.

use std::path::{Path, PathBuf};
use std::time::Instant;

use morestress_campaign::{results, CampaignRunner, CampaignSpec, JobOutcome};
use morestress_core::{GlobalStats, MoreStressSimulator, SimulatorBuilder};
use morestress_fem::{normalized_mae, ScalarField2d};
use morestress_linalg::{FactorCache, WorkPool};
use morestress_mesh::{BlockKind, BlockLayout};

use crate::calib::Calibrator;
use crate::env::{self, ProcUsage};
use crate::json::{obj, Value};
use crate::metrics::{self, Values};
use crate::stack::{backend_of, job_body, Route, Stack, BC};
use crate::stats::{median, tail};
use crate::trace::{child_cover_pct, PrepareEvent, Shim, Tracer};
use crate::workload::{Inputs, Workload, FIXED_DELTA_T};
use crate::{layers, reference};

/// Every verified solve must reach this relative residual.
const RESIDUAL_TOL: f64 = 1e-8;
/// Peak stress ÷ |ΔT| must be constant to this relative spread.
const LINEARITY_TOL: f64 = 1e-9;
/// Fixed-input peaks must match the committed values this closely.
const PEAK_TOL: f64 = 1e-6;
/// Passes through the campaign front door on an untraced run
/// (`campaign_s` is their median).
const CAMPAIGN_PASSES: usize = 3;
/// Ops shorter than this share the host-speed probes around them.
const PROBE_EVERY_S: f64 = 0.25;
/// Mid-plane samples per block and axis of the runner's job body.
const RUNNER_SAMPLES: usize = 4;

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Generator seed.
    pub seed: u64,
    /// Length of the timed op window in seconds.
    pub seconds: f64,
    /// Record spans and per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Smoke scale: tiny problems, three ops, every code path.
    pub quick: bool,
    /// Where the committed references live (`benchmark/reference`).
    pub reference_dir: PathBuf,
    /// Where the run may write (`benchmark/out`; created if missing).
    pub out_dir: PathBuf,
}

/// The sample counts behind a run's medians, and the ungated tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Samples {
    /// Timed ops (product route).
    pub ops: usize,
    /// The 11th-largest op latency (wall ms), from eleven ops up.
    pub op_ms_tail: Option<f64>,
    /// The largest op latency (wall ms).
    pub op_ms_max: f64,
    /// Fresh set-ups timed.
    pub setups: usize,
    /// Passes through the campaign front door.
    pub campaigns: usize,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Checks and ops attempted.
    pub attempted: u64,
    /// Of those, how many failed, were refused, or failed a check.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// The run's metrics: end-to-end on an untraced run (timings at
    /// reference speed, see [`crate::calib`]), per-layer on a traced one.
    pub metrics: Values,
    /// The four timing metrics as the wall clock read them, uncalibrated.
    pub wall: Values,
    /// Median slowdown of the run's host-speed probes (1 = reference speed).
    pub host_slowdown: f64,
    /// Median time (ms) of each probe kernel: compute, stream.
    pub probe_kernels_ms: [f64; 2],
    /// Sample counts and the tail (printed and recorded, not gated).
    pub samples: Samples,
}

impl Report {
    /// Whether every op and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Ops failed, refused or failing a check ÷ ops and checks attempted.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line the driver reads: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_line(&self, trace: bool) -> Value {
        obj([
            ("correct", self.correct().into()),
            ("attempted", (self.attempted as f64).into()),
            ("failed", (self.failed as f64).into()),
            ("metrics", self.metrics.to_json(metrics::table(trace))),
        ])
    }
}

/// Tallies ops and checks; every failure counts into the failure share.
#[derive(Debug, Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Gate {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    fn residual(&mut self, what: &str, stats: &GlobalStats) {
        self.check(
            stats.verified_residual.is_some_and(|r| r <= RESIDUAL_TOL),
            || {
                format!(
                    "{what}: verified residual {:?} exceeds {RESIDUAL_TOL:e}",
                    stats.verified_residual
                )
            },
        );
    }
}

/// What one op produced.
#[derive(Debug, Clone, Copy)]
struct OpOut {
    ms: f64,
    checksum: u64,
    peak_von_mises: f64,
    stats: GlobalStats,
}

/// Everything one run holds between phases.
struct Session<'c> {
    cfg: &'c Config,
    inputs: Inputs,
    yaml: String,
    spec: CampaignSpec,
    /// The product stack the first timed set-up built: what the
    /// shared-simulator workloads run every product op on, and the ROM
    /// source of every other stack.
    built: Option<Stack>,
    /// The traced stack ops last ran on: one for the whole run on the
    /// shared-simulator workloads, the latest per-op one otherwise.
    staged: Option<Stack>,
    /// The most recent `prepare` a traced stack saw.
    captured: Option<PrepareEvent>,
    /// The host-speed probes that bracket every timed sample.
    cal: Calibrator,
}

/// One timed sample: its wall time, and the probe count when it started
/// (see [`Calibrator::slowdown_around`]).
#[derive(Debug, Clone, Copy)]
struct Timed {
    wall: f64,
    bracket: usize,
}

/// Wall times of `samples` at reference speed: each divided by the
/// slowdown of the probes around it.
fn at_reference_speed(cal: &Calibrator, samples: &[Timed]) -> Vec<f64> {
    samples
        .iter()
        .map(|s| s.wall / cal.slowdown_around(s.bracket))
        .collect()
}

impl Session<'_> {
    fn workload(&self) -> Workload {
        self.cfg.workload
    }

    /// Whether every op of a route runs on one simulator (`load_sweep`,
    /// `placement_loop`) rather than on a fresh one per op.
    fn shares_simulator(&self) -> bool {
        matches!(
            self.workload(),
            Workload::LoadSweep | Workload::PlacementLoop
        )
    }

    fn rom_stem(&self) -> PathBuf {
        self.cfg
            .out_dir
            .join(format!("{}-model", self.workload().name()))
    }

    /// The builder a user of the spec would get — plus the dummy ROM on
    /// `placement_loop` (its moves introduce dummy blocks the all-TSV spec
    /// does not announce) and the `.rom` stem on `model_build`.
    fn builder(&self, spec: &CampaignSpec) -> SimulatorBuilder {
        let builder = spec.simulator_builder();
        match self.workload() {
            Workload::PlacementLoop => builder.build_dummy(true),
            Workload::ModelBuild => builder.cache_stem(self.rom_stem()),
            _ => builder,
        }
    }

    fn remove_roms(&self) {
        for kind in ["tsv", "dummy"] {
            let mut path = self.rom_stem().into_os_string();
            path.push(format!("-{kind}.rom"));
            let _ = std::fs::remove_file(path);
        }
    }

    /// One fresh set-up as a user pays it: YAML text → parsed spec → built
    /// model (no `.rom` on disk). Returns seconds.
    fn setup_once(&mut self, tracer: &mut Tracer) -> Result<f64, String> {
        self.remove_roms();
        let t0 = Instant::now();
        tracer.begin("setup", None);
        tracer.begin("spec.parse", None);
        let spec = CampaignSpec::parse(&self.yaml);
        tracer.end();
        // `run_pinned` parsed this very text already, so it parses here.
        let spec = spec.expect("the generated spec parsed a moment ago");
        tracer.begin("model.build", None);
        let built = self.builder(&spec).build();
        tracer.end();
        tracer.end();
        let secs = t0.elapsed().as_secs_f64();
        let built = built.map_err(|e| format!("model build: {e}"))?;
        // Ops run on what the first set-up built; later set-ups are timed
        // and dropped, so a shared simulator keeps its warm cache.
        if self.built.is_none() {
            self.spec = spec;
            self.built = Some(Stack::Product(built));
        }
        Ok(secs)
    }

    /// [`setup_once`](Self::setup_once) as a sample: a probe was taken
    /// before it, one follows it.
    fn timed_setup(&mut self, tracer: &mut Tracer) -> Result<Timed, String> {
        let bracket = self.cal.count();
        let wall = self.setup_once(tracer)?;
        self.cal.probe();
        Ok(Timed { wall, bracket })
    }

    /// The simulator set-up built.
    fn models(&self) -> &MoreStressSimulator {
        self.built.as_ref().expect("set-up ran").sim()
    }

    /// A stack around clones of the built ROMs, configured as the spec
    /// asks: fresh backend, fresh `FactorCache`.
    fn fresh_stack(&self, route: Route) -> Result<Stack, String> {
        let models = self.models();
        let mut builder = SimulatorBuilder::from_models(
            models.tsv_model().clone(),
            models.dummy_model().cloned(),
        )
        .solver(self.spec.solver.rom_solver())
        .verify(self.spec.solver.verify_policy());
        if self.spec.solver.shards > 0 {
            builder = builder.shards(self.spec.solver.shards);
        }
        let sim = builder
            .build()
            .map_err(|e| format!("wrapping built models: {e}"))?;
        Ok(self.wrap(sim, route))
    }

    fn wrap(&self, sim: MoreStressSimulator, route: Route) -> Stack {
        match route {
            Route::Product => Stack::Product(sim),
            Route::Staged => Stack::Staged {
                sim,
                shim: Shim::new(backend_of(&self.spec)),
                cache: FactorCache::new(),
            },
        }
    }

    /// Runs one job — layout, load and route given — on the workload's
    /// stack, timing exactly what the workload defines as the op: the job
    /// body, preceded on `model_build` by the persisted-`.rom` warm start.
    /// Spans are recorded on the traced route only.
    fn run_job(
        &mut self,
        layout: &BlockLayout,
        delta_t: f64,
        route: Route,
        tracer: &mut Tracer,
        op: Option<usize>,
    ) -> Result<OpOut, String> {
        let samples = self.inputs.sizes().samples;
        let perturbed = self.workload() == Workload::PlacementLoop && op.is_some();
        let mut off = Tracer::new(false);
        let tracer = if route == Route::Staged {
            tracer
        } else {
            &mut off
        };
        // A cold op gets its fresh stack before the clock starts.
        let mut fresh = match self.workload() {
            Workload::ColdArray => Some(self.fresh_stack(route)?),
            _ => None,
        };
        tracer.begin("op", op);
        let t0 = Instant::now();
        if self.workload() == Workload::ModelBuild {
            tracer.begin("model.rom_load", op);
            let sim = self.builder(&self.spec).build();
            tracer.end();
            match sim {
                Ok(sim) => fresh = Some(self.wrap(sim, route)),
                Err(e) => {
                    tracer.end();
                    return Err(format!("op {op:?}: warm start: {e}"));
                }
            }
        }
        let shared = match route {
            Route::Product => &self.built,
            Route::Staged => &self.staged,
        };
        let stack = fresh.as_ref().or(shared.as_ref()).expect("stack opened");
        let job = job_body(stack, layout, delta_t, samples, perturbed, tracer, op);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        tracer.end();
        if route == Route::Staged && fresh.is_some() {
            self.staged = fresh;
        }
        let job = job.map_err(|e| format!("op {op:?}: {e}"))?;
        if job.prepared.is_some() {
            self.captured = job.prepared;
        }
        Ok(OpOut {
            ms,
            checksum: job.checksum,
            peak_von_mises: job.peak_von_mises,
            stats: job.stats,
        })
    }
}

/// Counters of the traced route over the fixed prefix of ops (the cold
/// fixed-input op included), so they repeat exactly for a seed.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    cache_hits: usize,
    cache_misses: usize,
    refactored: usize,
    reused: usize,
    ops: usize,
}

impl Counters {
    /// Adds the cache tallies of the traced stack after one more op. A
    /// shared stack keeps one cache for the whole run, so its tallies are
    /// running totals; a per-op stack contributes one fresh cache.
    fn add_cache(&mut self, session: &Session<'_>) {
        let Some(stack) = &session.staged else {
            return;
        };
        let (hits, misses) = (stack.cache().hits(), stack.cache().misses());
        if session.shares_simulator() {
            (self.cache_hits, self.cache_misses) = (hits, misses);
        } else {
            self.cache_hits += hits;
            self.cache_misses += misses;
        }
    }

    fn add_shards(&mut self, stats: &GlobalStats) {
        self.refactored += stats.shards_refactored;
        self.reused += stats.shards_reused;
        self.ops += 1;
    }
}

/// What the fixed input and the timed ops produced so far.
struct Window {
    /// Timed ops on the product route, in op order.
    product: Vec<OpOut>,
    /// Per timed op, the probe count when it started.
    brackets: Vec<usize>,
    /// Peak von Mises ÷ |ΔT| of every timed op (`load_sweep` linearity).
    ratios: Vec<f64>,
    /// Per op, how much longer (%) the traced route took than the product
    /// route on the same input.
    overhead_pct: Vec<f64>,
    counters: Counters,
    /// The cold `prepare` of the traced fixed-input op (ms).
    cold_prepare_ms: f64,
    /// CPU time and page faults of the ops; `None` once `/proc` failed to
    /// say.
    usage: Option<ProcUsage>,
    /// Index of the next op.
    next: usize,
}

/// Runs `cfg` on the pinned pool and returns its report.
///
/// # Errors
///
/// A harness-level failure that leaves nothing to report: the generated
/// spec does not parse, the model does not build, no op completes, a
/// reference file is missing, or the output directory cannot be written.
pub fn run(cfg: &Config) -> Result<Report, String> {
    WorkPool::new(env::pinned_pool_cap()).install(|| run_pinned(cfg))
}

fn run_pinned(cfg: &Config) -> Result<Report, String> {
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;
    let inputs = Inputs::new(cfg.workload, cfg.seed, cfg.quick);
    let sizes = *inputs.sizes();
    let yaml = inputs.spec_yaml();
    let spec = CampaignSpec::parse(&yaml).map_err(|e| format!("generated spec rejected: {e}"))?;
    let mut session = Session {
        cfg,
        inputs,
        yaml,
        spec,
        built: None,
        staged: None,
        captured: None,
        cal: Calibrator::default(),
    };
    let mut gate = Gate::default();
    let mut tracer = Tracer::new(cfg.trace);
    let mut metrics = Values::default();

    // The schedule. Set-ups and campaign passes are few and long, so back
    // to back a noisy few seconds of a shared host would cover most of
    // them and move their median. An untraced run therefore cuts the op
    // window into as many slices as it has set-ups and passes and lets one
    // slice follow each of them:
    //
    //   S F O  S O  S O  [VmHWM]  C O  C O  C O
    //
    // so the samples of every metric spread over the whole run. A traced
    // run (one set-up, one pass) keeps its window in one piece.
    let setups = if cfg.trace { 1 } else { sizes.setups };
    let passes = if cfg.trace || cfg.quick {
        1
    } else {
        CAMPAIGN_PASSES
    };
    let slices = if cfg.trace { 1 } else { setups + passes };
    let slice_s = cfg.seconds / slices as f64;
    // Only the last slice waits for the `min_ops` floor.
    let floor = |slice: usize| if slice == slices { sizes.min_ops } else { 0 };

    session.cal.probe();
    let mut setup_s = vec![session.timed_setup(&mut tracer)?];
    if cfg.trace && session.shares_simulator() {
        session.staged = Some(session.fresh_stack(Route::Staged)?);
    }
    let mut window = fixed_input(&mut session, &mut tracer, &mut gate)?;
    window.run_slice(&mut session, &mut tracer, &mut gate, slice_s, floor(1));
    for slice in 2..=setups {
        setup_s.push(session.timed_setup(&mut tracer)?);
        window.run_slice(&mut session, &mut tracer, &mut gate, slice_s, floor(slice));
    }
    let peak_rss_mb = env::peak_rss_mb();

    // The front door: YAML text → results JSON on disk.
    let results_path = cfg
        .out_dir
        .join(format!("campaign-{}.json", cfg.workload.name()));
    let mut campaign_s = Vec::new();
    let mut campaign_checksums = Vec::new();
    for pass in 0..passes {
        let bracket = session.cal.count();
        let t0 = Instant::now();
        let (layer, checksums) = campaign(&session.yaml, &results_path, &mut tracer, &mut gate)?;
        campaign_s.push(Timed {
            wall: t0.elapsed().as_secs_f64(),
            bracket,
        });
        session.cal.probe();
        if cfg.trace {
            metrics.extend(layer);
        } else {
            let slice = setups + pass + 1;
            window.run_slice(&mut session, &mut tracer, &mut gate, slice_s, floor(slice));
        }
        if pass == 0 {
            campaign_checksums = checksums;
        }
    }

    let product = &window.product;
    if product.is_empty() {
        return Err(format!("no op completed: {}", gate.failures.join("; ")));
    }
    let ops: Vec<Timed> = product
        .iter()
        .zip(&window.brackets)
        .map(|(op, &bracket)| Timed {
            wall: op.ms,
            bracket,
        })
        .collect();
    if cfg.workload == Workload::LoadSweep {
        let lo = window.ratios.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = window.ratios.iter().copied().fold(0.0, f64::max);
        gate.check((hi - lo) / hi <= LINEARITY_TOL, || {
            format!(
                "peak von Mises / |dT| varies by {:e} across loads",
                (hi - lo) / hi
            )
        });
    }
    // The spec's jobs are the first ops (same layout, same loads) wherever
    // ops neither move blocks nor sample more densely than the runner does:
    // there the runner's own job body must have produced the same bits as
    // ours.
    if cfg.workload != Workload::PlacementLoop && sizes.samples == RUNNER_SAMPLES {
        let ours = product.iter().map(|o| o.checksum);
        gate.check(
            campaign_checksums
                .iter()
                .copied()
                .zip(ours)
                .all(|(a, b)| a == b),
            || "campaign job checksums differ from the ops of the same inputs".to_string(),
        );
    }

    // One op re-solved: the same bits must come back.
    let layout0 = session.inputs.layout(0);
    let delta_t0 = session.inputs.delta_t(0);
    let mut off = Tracer::new(false);
    let again = session.run_job(&layout0, delta_t0, Route::Product, &mut off, Some(0));
    gate.check(
        matches!(&again, Ok(again) if again.checksum == product[0].checksum),
        || "op 0 re-solved to a different checksum".to_string(),
    );
    if cfg.workload == Workload::PlacementLoop {
        // One move against a from-scratch solve of the perturbed layout.
        let scratch = session.fresh_stack(Route::Product).and_then(|stack| {
            job_body(
                &stack,
                &layout0,
                delta_t0,
                sizes.samples,
                false,
                &mut off,
                None,
            )
            .map_err(|e| e.to_string())
        });
        gate.check(
            matches!(&scratch, Ok(job) if job.checksum == product[0].checksum),
            || "placement move 0 differs from a from-scratch solve".to_string(),
        );
    }

    let rom_error_pct = accuracy(&session, &mut gate)?;

    if cfg.trace {
        traced_metrics(&mut metrics, &session, &tracer, &window, &mut gate)?;
        let trace_path = cfg
            .out_dir
            .join(format!("trace-{}.json", cfg.workload.name()));
        std::fs::write(&trace_path, tracer.to_json().to_line() + "\n")
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    } else {
        let cal = &session.cal;
        metrics.extend(timings(
            &at_reference_speed(cal, &setup_s),
            &at_reference_speed(cal, &ops),
            &at_reference_speed(cal, &campaign_s),
        ));
        gate.check(peak_rss_mb.is_some(), || {
            "VmHWM is not readable".to_string()
        });
        metrics.set("peak_rss_mb", peak_rss_mb.unwrap_or(0.0));
        metrics.set("rom_error_pct", rom_error_pct);
    }
    session.remove_roms();

    let wall = |samples: &[Timed]| samples.iter().map(|s| s.wall).collect::<Vec<f64>>();
    let op_ms = wall(&ops);
    Ok(Report {
        attempted: gate.attempted,
        failed: gate.failed,
        failures: gate.failures,
        metrics,
        wall: timings(&wall(&setup_s), &op_ms, &wall(&campaign_s)),
        host_slowdown: median(session.cal.slowdowns()),
        probe_kernels_ms: session.cal.kernel_medians_ms(),
        samples: Samples {
            ops: op_ms.len(),
            op_ms_tail: tail(&op_ms),
            op_ms_max: op_ms.iter().copied().fold(0.0, f64::max),
            setups: setup_s.len(),
            campaigns: campaign_s.len(),
        },
    })
}

/// The four timing metrics from their samples (set-ups in s, ops in ms,
/// campaign passes in s): medians, and ops ÷ their summed time.
fn timings(setup_s: &[f64], op_ms: &[f64], campaign_s: &[f64]) -> Values {
    let mut out = Values::default();
    out.set("setup_s", median(setup_s));
    out.set("op_ms_p50", median(op_ms));
    out.set(
        "ops_per_s",
        op_ms.len() as f64 / (op_ms.iter().sum::<f64>() / 1e3),
    );
    out.set("campaign_s", median(campaign_s));
    out
}

/// The fixed input: the base layout at the anneal load, untimed — on a
/// shared stack it is the cold op that fills the cache. On a traced run it
/// runs on both routes.
fn fixed_input(
    session: &mut Session<'_>,
    tracer: &mut Tracer,
    gate: &mut Gate,
) -> Result<Window, String> {
    let cfg = session.cfg;
    let mut counters = Counters::default();
    let base = session.inputs.base_layout();
    let peak_key = reference::peak_key(cfg.workload, cfg.quick);
    let want = reference::read_peaks(&cfg.reference_dir)?
        .get(&peak_key)
        .copied();
    for &route in routes(cfg.trace) {
        match session.run_job(&base, FIXED_DELTA_T, route, tracer, None) {
            Ok(out) => {
                gate.residual("fixed input", &out.stats);
                let same = |want: f64| (out.peak_von_mises - want).abs() <= PEAK_TOL * want.abs();
                gate.check(want.is_some_and(same), || {
                    format!(
                        "fixed-input peak von Mises {} differs from committed {want:?} ({peak_key})",
                        out.peak_von_mises
                    )
                });
            }
            Err(e) => gate.check(false, || format!("fixed input: {e}")),
        }
    }
    counters.add_cache(session);
    let cold_prepare_ms = session
        .captured
        .as_ref()
        .map_or(0.0, |e| (e.end - e.start).as_secs_f64() * 1e3);
    Ok(Window {
        product: Vec::new(),
        brackets: Vec::new(),
        ratios: Vec::new(),
        overhead_pct: Vec::new(),
        counters,
        cold_prepare_ms,
        usage: Some(ProcUsage::default()),
        next: 0,
    })
}

/// The routes every op of a run takes: the product's, and on a traced run
/// the hand-assembled one beside it.
fn routes(trace: bool) -> &'static [Route] {
    if trace {
        &[Route::Product, Route::Staged]
    } else {
        &[Route::Product]
    }
}

impl Window {
    /// One slice of the timed window: ops in index order until `seconds`
    /// have passed and the run has `min_total` ops; at least one op. On a
    /// traced run every op runs on both routes, back to back.
    fn run_slice(
        &mut self,
        session: &mut Session<'_>,
        tracer: &mut Tracer,
        gate: &mut Gate,
        seconds: f64,
        min_total: usize,
    ) {
        let cfg = session.cfg;
        let min_ops = session.inputs.sizes().min_ops;
        let started = Instant::now();
        loop {
            let i = self.next;
            let usage_before = ProcUsage::now();
            let layout = session.inputs.layout(i);
            let delta_t = session.inputs.delta_t(i);
            // On a traced run both routes solve op `i` back to back, in
            // alternating order, so that neither always inherits the other's
            // warm caches.
            let traced_first = cfg.trace && i % 2 == 1;
            let mut traced = None;
            if traced_first {
                traced = Some(session.run_job(&layout, delta_t, Route::Staged, tracer, Some(i)));
            }
            let bracket = session.cal.count();
            let out = session.run_job(&layout, delta_t, Route::Product, tracer, Some(i));
            if cfg.trace && !traced_first {
                traced = Some(session.run_job(&layout, delta_t, Route::Staged, tracer, Some(i)));
            }
            match &out {
                Ok(out) => {
                    gate.residual("op", &out.stats);
                    self.product.push(*out);
                    self.brackets.push(bracket);
                    self.ratios.push(out.peak_von_mises / delta_t.abs());
                }
                Err(e) => gate.check(false, || e.clone()),
            }
            if let Some(traced) = traced {
                // The hand-assembled stage must be the product's stage, bit
                // for bit.
                gate.check(
                    matches!((&out, &traced), (Ok(a), Ok(b)) if a.checksum == b.checksum),
                    || format!("op {i}: traced stack disagrees with the product stack"),
                );
                if let (Ok(plain), Ok(traced)) = (&out, &traced) {
                    self.overhead_pct
                        .push(100.0 * (traced.ms - plain.ms) / plain.ms);
                }
                if i < min_ops {
                    self.counters.add_cache(session);
                    if let Ok(traced) = &traced {
                        self.counters.add_shards(&traced.stats);
                    }
                }
            }
            // Usage is tallied op by op, so the probes stay out of it.
            let used = usage_before.zip(ProcUsage::now()).map(|(a, b)| b.since(a));
            self.usage = self.usage.zip(used).map(|(sum, used)| sum.plus(used));
            self.next += 1;
            let done = self.next >= min_total && started.elapsed().as_secs_f64() >= seconds;
            // The probe after this op; ops of a few milliseconds share
            // theirs, and a slice always ends on one.
            session
                .cal
                .probe_if_older(if done { 0.0 } else { PROBE_EVERY_S });
            if done {
                break;
            }
        }
    }
}

/// One pass through the front door: parse the YAML text, run the campaign,
/// write the results JSON. Returns the `spec.*`/`runner.*`/`results.*`
/// layer metrics of this pass and the checksums of its solved jobs.
fn campaign(
    yaml: &str,
    results_path: &Path,
    tracer: &mut Tracer,
    gate: &mut Gate,
) -> Result<(Values, Vec<u64>), String> {
    let mut layer = Values::default();
    tracer.begin("campaign", None);
    let t0 = Instant::now();
    tracer.begin("spec.parse", None);
    let spec = CampaignSpec::parse(yaml);
    tracer.end();
    layer.set("spec.parse_us", t0.elapsed().as_secs_f64() * 1e6);
    let spec = spec.expect("the generated spec parsed a moment ago");

    let t0 = Instant::now();
    tracer.begin("runner.run", None);
    let reports = CampaignRunner::new().run(std::slice::from_ref(&spec));
    tracer.end();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let reports = match reports {
        Ok(reports) => reports,
        Err(e) => {
            tracer.end();
            return Err(format!("campaign model build: {e}"));
        }
    };

    let t0 = Instant::now();
    tracer.begin("results.write", None);
    let written = results::write_results_json(results_path, &reports);
    tracer.end();
    layer.set("results.write_ms", t0.elapsed().as_secs_f64() * 1e3);
    tracer.end();
    written.map_err(|e| format!("{}: {e}", results_path.display()))?;
    let bytes = std::fs::metadata(results_path).map_or(0, |m| m.len());
    layer.set("results.bytes", bytes as f64);

    let mut jobs_ms = 0.0;
    let mut checksums = Vec::new();
    for job in reports.iter().flat_map(|r| &r.jobs) {
        match &job.outcome {
            JobOutcome::Solved {
                stats, checksum, ..
            } => {
                gate.residual("campaign job", stats);
                jobs_ms += stats.wall_time.as_secs_f64() * 1e3;
                checksums.push(*checksum);
            }
            JobOutcome::Failed { error } => gate.check(false, || format!("campaign job: {error}")),
        }
    }
    if tracer.enabled() {
        // The runner does not say how long its model build took; build the
        // same model once more beside it.
        let t0 = Instant::now();
        let model = spec.simulator_builder().build();
        let model_ms = t0.elapsed().as_secs_f64() * 1e3;
        model.map_err(|e| format!("campaign model rebuild: {e}"))?;
        layer.set("runner.wall_ms", wall_ms);
        layer.set("runner.model_ms", model_ms);
        layer.set("runner.jobs_wall_sum_ms", jobs_ms);
        // Jobs cannot overlap more than the pool is wide; the floor keeps the
        // ratio sane when the rebuilt model happened to take as long as the
        // whole campaign.
        let cap = WorkPool::current().cap() as f64;
        layer.set(
            "runner.parallel_gain",
            jobs_ms / (wall_ms - model_ms).max(jobs_ms / cap).max(1e-3),
        );
    }
    Ok((layer, checksums))
}

/// `rom_error_pct`: normalized MAE (%) of the ROM mid-plane von Mises
/// field of the small all-TSV accuracy array against the committed
/// full-FEM field at the same resolution.
fn accuracy(session: &Session<'_>, gate: &mut Gate) -> Result<f64, String> {
    let cfg = session.cfg;
    let n = reference::accuracy_side(cfg.workload);
    let path = reference::field_path(&cfg.reference_dir, n, session.inputs.sizes().resolution);
    let reference = reference::read_field(&path)?;
    let layout = BlockLayout::uniform(n, n, BlockKind::Tsv);
    let sim = session.models();
    let field = sim
        .solve_array(&layout, FIXED_DELTA_T, &BC)
        .and_then(|solution| {
            gate.residual("accuracy solve", &solution.stats);
            sim.sample_midplane(
                &layout,
                &solution,
                FIXED_DELTA_T,
                reference::ACCURACY_SAMPLES,
            )
        })
        .map_err(|e| format!("accuracy solve: {e}"))?;
    if field.values.len() != reference.len() {
        return Err(format!(
            "{}: {} samples, the ROM field has {}",
            path.display(),
            reference.len(),
            field.values.len()
        ));
    }
    let reference = ScalarField2d {
        grid: field.grid,
        values: reference,
    };
    Ok(100.0 * normalized_mae(&field, &reference))
}

/// Fills the per-layer metrics of a traced run from its spans, counters
/// and replays.
fn traced_metrics(
    metrics: &mut Values,
    session: &Session<'_>,
    tracer: &Tracer,
    window: &Window,
    gate: &mut Gate,
) -> Result<(), String> {
    let sizes = *session.inputs.sizes();
    let stats = window.product[0].stats;
    let counters = &window.counters;
    let span_median = |name: &str| {
        let timed = tracer.durations(name, |op| op.is_some());
        if timed.is_empty() {
            0.0
        } else {
            median(&timed)
        }
    };

    // Spans: what each public call of the op cost.
    let stage_ms = span_median("global.solve");
    let prepare_ms = span_median("factor.prepare");
    metrics.set("global.stage_ms", stage_ms);
    metrics.set("global.total_dofs", stats.total_dofs as f64);
    metrics.set("global.free_dofs", stats.free_dofs as f64);
    metrics.set("global.nnz", stats.nnz as f64);
    metrics.set("factor.prepare_ms", prepare_ms);
    metrics.set("reconstruct.sample_ms", span_median("reconstruct.sample"));
    let base = session.inputs.base_layout();
    metrics.set(
        "reconstruct.points",
        (base.nx() * base.ny() * sizes.samples * sizes.samples) as f64,
    );

    metrics.set("cache.hits", counters.cache_hits as f64);
    metrics.set("cache.misses", counters.cache_misses as f64);
    metrics.set(
        "cache.hit_ratio",
        counters.cache_hits as f64 / (counters.cache_hits + counters.cache_misses).max(1) as f64,
    );

    // The spec's unit block and the captured operator, replayed layer by
    // layer.
    let staged = session
        .staged
        .as_ref()
        .expect("a traced run keeps its last stack");
    metrics.extend(layers::kernel());
    metrics.extend(layers::local_stage(&session.spec, &session.rom_stem())?);
    let mut sweep_ms = 0.0;
    let mut fingerprint_ms = 0.0;
    if let Some(event) = &session.captured {
        let a = &event.matrix;
        let direct = layers::direct_solver(a)?;
        sweep_ms = direct.get("sweep.ms_per_rhs").unwrap_or(0.0);
        fingerprint_ms = direct.get("cache.fingerprint_ms").unwrap_or(0.0);
        metrics.extend(direct);
        if sizes.shards > 0 {
            metrics.extend(layers::shard_plan(
                a,
                sizes.shards,
                staged.hint().as_deref(),
            ));
            metrics.set(
                "shard.peak_shard_bytes_est",
                stats.shard_factor_bytes as f64,
            );
            metrics.set("shard.prepare_cold_ms", window.cold_prepare_ms);
            metrics.set("shard.prepare_incr_ms", prepare_ms);
            metrics.set(
                "shard.refactored_per_op",
                counters.refactored as f64 / counters.ops.max(1) as f64,
            );
            metrics.set(
                "shard.reused_ratio",
                counters.reused as f64 / (counters.refactored + counters.reused).max(1) as f64,
            );
        }
        if session.workload() == Workload::ColdArray {
            metrics.extend(layers::iterative(a)?);
        }
    } else {
        gate.check(false, || "the shim captured no operator".to_string());
    }
    metrics.set(
        "global.self_ms",
        stage_ms - prepare_ms - sweep_ms - fingerprint_ms,
    );

    // The batched use of the same layer: eight loads on the base layout,
    // after one untimed solve has made sure its factor is cached.
    let loads: Vec<f64> = (0..8).map(|i| session.inputs.load(i)).collect();
    let batch = staged.solve_many(&base, &loads[..1]).and_then(|_| {
        let t0 = Instant::now();
        let batch = staged.solve_many(&base, &loads);
        metrics.set("global.batch8_ms", t0.elapsed().as_secs_f64() * 1e3);
        batch
    });
    gate.check(batch.is_ok(), || {
        format!("batched solve: {:?}", batch.as_ref().err())
    });

    if let Some(usage) = window.usage {
        metrics.set("proc.user_s", usage.user_s);
        metrics.set("proc.sys_s", usage.sys_s);
        metrics.set("proc.minflt", usage.minflt);
    }
    metrics.set("pool.cap", WorkPool::current().cap() as f64);
    if !window.overhead_pct.is_empty() {
        metrics.set("trace.overhead_pct", median(&window.overhead_pct));
    }
    // Worst op: the share of its span its child spans account for.
    let cover = child_cover_pct(tracer.spans(), "op");
    metrics.set("trace.op_cover_pct", cover.first().copied().unwrap_or(0.0));
    Ok(())
}

/// Recomputes everything under `reference/`: the full-FEM fields of both
/// accuracy arrays at both scales, and the fixed-input peak of every
/// workload.
///
/// # Errors
///
/// The first FEM, ROM or filesystem failure.
pub fn regen_reference(dir: &Path) -> Result<(), String> {
    let reference_dir = dir.join("reference");
    std::fs::create_dir_all(&reference_dir)
        .map_err(|e| format!("{}: {e}", reference_dir.display()))?;
    WorkPool::new(env::pinned_pool_cap()).install(|| {
        let mut peaks = std::collections::BTreeMap::new();
        for quick in [false, true] {
            for w in Workload::ALL {
                let inputs = Inputs::new(w, 1, quick);
                let spec = CampaignSpec::parse(&inputs.spec_yaml())
                    .map_err(|e| format!("generated spec rejected: {e}"))?;
                // Every workload of a scale shares one model, so the two
                // workloads below cover both accuracy arrays.
                if matches!(w, Workload::ColdArray | Workload::ModelBuild) {
                    let n = reference::accuracy_side(w);
                    let resolution = inputs.sizes().resolution;
                    eprintln!("full FEM, {n}x{n} array, {resolution} mesh ...");
                    let what = format!(
                        "full-FEM mid-plane von Mises (MPa): {n}x{n} all-TSV array, {resolution} mesh, \
                         clamped top/bottom, dT = {FIXED_DELTA_T}, {} samples per block and axis, row-major",
                        reference::ACCURACY_SAMPLES
                    );
                    reference::write_field(
                        &reference::field_path(&reference_dir, n, resolution),
                        &what,
                        &reference::fem_field(&spec, n)?,
                    )?;
                }
                eprintln!("fixed input of {} ...", reference::peak_key(w, quick));
                let mut builder = spec.simulator_builder();
                if w == Workload::PlacementLoop {
                    builder = builder.build_dummy(true);
                }
                let stack = Stack::Product(builder.build().map_err(|e| e.to_string())?);
                let job = job_body(
                    &stack,
                    &inputs.base_layout(),
                    FIXED_DELTA_T,
                    inputs.sizes().samples,
                    false,
                    &mut Tracer::new(false),
                    None,
                )
                .map_err(|e| e.to_string())?;
                peaks.insert(reference::peak_key(w, quick), job.peak_von_mises);
            }
        }
        reference::write_peaks(&reference_dir, &peaks)
    })
}
