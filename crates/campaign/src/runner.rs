//! `CampaignRunner`: the scheduler that runs many campaigns against one
//! shared simulator stack.
//!
//! Every (campaign, array, load) triple is one *job*, but the unit of
//! work is the array: one task per (campaign, array) pair solves all of
//! the array's loads in one batched call
//! ([`solve_array_many`](MoreStressSimulator::solve_array_many) — one
//! operator, one factorization, one multi-right-hand-side sweep), then
//! samples each solution. Campaigns whose
//! [`model_key`](CampaignSpec::model_key) agree share one
//! [`MoreStressSimulator`] — and therefore one
//! [`FactorCache`](morestress_linalg::FactorCache), so two campaigns over
//! the same lattice pay one factorization between them. The tasks run on
//! the process-wide [`WorkPool`], and each job is isolated: a panic or a
//! typed solver failure becomes a [`JobOutcome::Failed`] without sinking
//! the campaign. A failed batch fails each of its array's jobs with the
//! same message.
//!
//! **Determinism**: job *results* are a pure function of the specs. The
//! canonical order (campaign-major, array-major, load-minor) is both the
//! order tasks are claimed in and the report order, and every solved
//! job's checksum is bitwise identical across pool caps — only wall times
//! vary with scheduling. The cache tallies are exact too (one miss per
//! distinct operator, no hit within an array's batch), unless two tasks
//! of one simulator group — same-model campaigns, say — run the same
//! array concurrently.

use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

use morestress_core::{GlobalBc, GlobalStats, MoreStressSimulator, RomError};
use morestress_linalg::WorkPool;

use crate::spec::CampaignSpec;

/// How one job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// The solve completed.
    Solved {
        /// FNV-1a over the displacement and midplane-stress bits —
        /// the value the determinism suite compares across pool caps.
        checksum: u64,
        /// Peak absolute nodal displacement component (µm).
        peak_displacement: f64,
        /// Peak midplane von Mises stress (MPa).
        peak_von_mises: f64,
        /// Wall time of sampling the midplane field (ms) — the half of a
        /// warm job that `stats.wall_time`, the global stage alone, leaves
        /// out.
        sample_ms: f64,
        /// Cost accounting of the global-stage solve: the batch aggregate
        /// of the array's loads, shared by each of its jobs (boxed: it is
        /// an order of magnitude larger than the `Failed` variant).
        stats: Box<GlobalStats>,
    },
    /// The job failed — typed solver error, invalid load, or a caught
    /// panic. The campaign keeps running.
    Failed {
        /// Human-readable failure description.
        error: String,
    },
}

impl JobOutcome {
    /// True for [`JobOutcome::Solved`].
    pub fn is_solved(&self) -> bool {
        matches!(self, JobOutcome::Solved { .. })
    }
}

/// The report of one job, in canonical order within its campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Name of the campaign the job belongs to.
    pub campaign: String,
    /// Index into the campaign's `tsv_array` list.
    pub array_index: usize,
    /// Index into the campaign's `loads` list.
    pub load_index: usize,
    /// The thermal load ΔT (°C) the job solved.
    pub load: f64,
    /// How it ended.
    pub outcome: JobOutcome,
}

/// The aggregated result of one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Campaign name (from the spec).
    pub name: String,
    /// One report per (array, load) job, campaign-canonical order:
    /// array-major, load-minor — independent of scheduling.
    pub jobs: Vec<JobReport>,
    /// Hits on the shared [`FactorCache`](morestress_linalg::FactorCache)
    /// of this campaign's simulator group after the run: one per batched
    /// solve that found its factor already prepared. An array's loads are
    /// one batch, so a lone campaign with distinct arrays has none;
    /// campaigns with equal model keys share the counter, and a repeated
    /// array hits.
    pub cache_hits: usize,
    /// Misses on the shared cache after the run (= distinct operators
    /// factored).
    pub cache_misses: usize,
    /// Where the one-shot local stage of this campaign's simulator group
    /// spent its time (shared, like the cache counters, by campaigns with
    /// equal model keys).
    pub local_stage: LocalStageCost,
}

/// The one-shot local-stage time of a simulator, summed over the block
/// models it built. A model loaded from a `.rom` file ran no local stage
/// and adds nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LocalStageCost {
    /// Whole local-stage builds.
    pub build: Duration,
    /// The factorizations of `A_ff`.
    pub factor: Duration,
    /// The n+1 triangular sweeps on those factors.
    pub sweeps: Duration,
    /// The Galerkin projections.
    pub projection: Duration,
}

impl LocalStageCost {
    /// Sums the local-stage stats of `sim`'s TSV and dummy models.
    pub fn of(sim: &MoreStressSimulator) -> Self {
        std::iter::once(sim.tsv_model())
            .chain(sim.dummy_model())
            .fold(Self::default(), |cost, rom| {
                let stats = &rom.local_stats;
                Self {
                    build: cost.build + stats.build_time,
                    factor: cost.factor + stats.factor_time,
                    sweeps: cost.sweeps + stats.solve_time,
                    projection: cost.projection + stats.projection_time,
                }
            })
    }
}

impl CampaignReport {
    /// Number of solved jobs.
    pub fn solved(&self) -> usize {
        self.jobs.iter().filter(|j| j.outcome.is_solved()).count()
    }

    /// Number of failed jobs.
    pub fn failed(&self) -> usize {
        self.jobs.len() - self.solved()
    }

    /// Number of solved jobs that found their operator in the factor cache
    /// by key and skipped global assembly
    /// ([`GlobalStats::operator_reused`]). An array's loads share one
    /// batch and its stats, so this counts every job of an array whose
    /// operator an earlier same-model campaign already factored.
    pub fn operators_reused(&self) -> usize {
        self.jobs
            .iter()
            .filter(
                |j| matches!(&j.outcome, JobOutcome::Solved { stats, .. } if stats.operator_reused),
            )
            .count()
    }
}

/// The campaign scheduler. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct CampaignRunner;

impl CampaignRunner {
    /// A runner. At most [`WorkPool`]-cap arrays are in flight at once.
    pub fn new() -> Self {
        Self
    }

    /// Runs every campaign to completion and returns one report per
    /// campaign, in input order.
    ///
    /// Simulators are built up-front, one per distinct
    /// [`model_key`](CampaignSpec::model_key); the arrays then drain
    /// through the shared [`WorkPool`], one task each. Individual job
    /// failures are contained in their [`JobReport`]s — this method only
    /// fails when a *model* cannot be built at all.
    ///
    /// # Errors
    ///
    /// [`RomError`] from the one-shot local stage of a simulator group.
    pub fn run(&self, specs: &[CampaignSpec]) -> Result<Vec<CampaignReport>, RomError> {
        // One simulator per distinct model key; campaigns map onto groups.
        let mut groups: Vec<(Vec<u64>, MoreStressSimulator)> = Vec::new();
        let mut group_of = Vec::with_capacity(specs.len());
        for spec in specs {
            let key = spec.model_key();
            let gi = match groups.iter().position(|(k, _)| *k == key) {
                Some(gi) => gi,
                None => {
                    groups.push((key, spec.simulator_builder().build()?));
                    groups.len() - 1
                }
            };
            group_of.push(gi);
        }

        // One task per (campaign, array), in canonical order.
        let tasks: Vec<(usize, usize)> = specs
            .iter()
            .enumerate()
            .flat_map(|(ci, spec)| (0..spec.arrays.len()).map(move |ai| (ci, ai)))
            .collect();
        let pool = WorkPool::current();
        let (per_array, _) = pool.scope_collect(pool.cap(), tasks.len(), |t| {
            let (ci, ai) = tasks[t];
            run_array(&specs[ci], &groups[group_of[ci]].1, ai)
        });

        let mut per_array = per_array.into_iter();
        let reports = specs
            .iter()
            .zip(&group_of)
            .map(|(spec, &gi)| {
                let sim = &groups[gi].1;
                let cache = sim.factor_cache();
                CampaignReport {
                    name: spec.name.clone(),
                    jobs: per_array
                        .by_ref()
                        .take(spec.arrays.len())
                        .flatten()
                        .collect(),
                    cache_hits: cache.hits(),
                    cache_misses: cache.misses(),
                    local_stage: LocalStageCost::of(sim),
                }
            })
            .collect();
        Ok(reports)
    }
}

/// Runs the jobs of one array, load-minor. A non-finite load fails on its
/// own; the finite loads share one batched solve with full fault
/// containment — a typed error or a panic in it, or in the sampling,
/// fails every one of them with the same message.
fn run_array(spec: &CampaignSpec, sim: &MoreStressSimulator, array: usize) -> Vec<JobReport> {
    let finite: Vec<f64> = spec
        .loads
        .iter()
        .copied()
        .filter(|l| l.is_finite())
        .collect();
    let mut solved =
        match panic::catch_unwind(AssertUnwindSafe(|| solve_loads(spec, sim, array, &finite))) {
            Ok(Ok(outcomes)) => Ok(outcomes.into_iter()),
            Ok(Err(e)) => Err(e.to_string()),
            // `&*payload`, not `&payload`: coercing `&Box<dyn Any>` would
            // make the *box* the `Any` and every downcast miss.
            Err(payload) => Err(format!("panic: {}", panic_message(&*payload))),
        };
    spec.loads
        .iter()
        .enumerate()
        .map(|(li, &load)| {
            let outcome = if !load.is_finite() {
                JobOutcome::Failed {
                    error: format!("load {load} is not finite"),
                }
            } else {
                match &mut solved {
                    Ok(outcomes) => outcomes.next().expect("one outcome per finite load"),
                    Err(error) => JobOutcome::Failed {
                        error: error.clone(),
                    },
                }
            };
            JobReport {
                campaign: spec.name.clone(),
                array_index: array,
                load_index: li,
                load,
                outcome,
            }
        })
        .collect()
}

/// One batched solve of `loads` on array `array`, then each solution's
/// midplane sampling and checksum, in load order.
fn solve_loads(
    spec: &CampaignSpec,
    sim: &MoreStressSimulator,
    array: usize,
    loads: &[f64],
) -> Result<Vec<JobOutcome>, RomError> {
    if loads.is_empty() {
        return Ok(Vec::new());
    }
    let layout = spec.arrays[array].layout();
    let solutions = sim.solve_array_many(&layout, loads, &GlobalBc::ClampedTopBottom)?;
    loads
        .iter()
        .zip(solutions)
        .map(|(&load, solution)| {
            let sampling = Instant::now();
            let field = sim.sample_midplane(&layout, &solution, load, 4)?;
            let sample_ms = sampling.elapsed().as_secs_f64() * 1e3;
            let mut checksum = Fnv1a::new();
            let mut peak_displacement = 0.0f64;
            for &u in solution.nodal_displacement() {
                checksum.write_f64(u);
                peak_displacement = peak_displacement.max(u.abs());
            }
            for &v in &field.values {
                checksum.write_f64(v);
            }
            Ok(JobOutcome::Solved {
                checksum: checksum.finish(),
                peak_displacement,
                peak_von_mises: field.max(),
                sample_ms,
                stats: Box::new(solution.stats),
            })
        })
        .collect()
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "opaque payload"
    }
}

/// FNV-1a over raw f64 bits: order-sensitive, bitwise-exact, stable
/// across platforms — exactly what the cross-cap determinism contract
/// needs (`std` hashers are seeded per-process).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write_f64(&mut self, v: f64) {
        for byte in v.to_bits().to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
