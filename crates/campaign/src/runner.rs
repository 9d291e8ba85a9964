//! `CampaignRunner`: the concurrent job scheduler that admits many
//! campaigns against one shared simulator stack.
//!
//! Every (campaign, array, load) triple becomes one *job*. Campaigns
//! whose [`model_key`](CampaignSpec::model_key) agree share one
//! [`MoreStressSimulator`] — and therefore one
//! [`FactorCache`](morestress_linalg::FactorCache), so two campaigns over
//! the same lattice pay one factorization between them. Jobs run on the
//! process-wide [`WorkPool`] under bounded admission, and each job is
//! isolated: a panic or a typed solver failure becomes that job's
//! [`JobOutcome::Failed`] without sinking the campaign (the PR 8
//! containment surface, extended to the scheduler).
//!
//! **Determinism**: job *results* are a pure function of the specs. The
//! report order is canonical (campaign-major, array-major, load-minor)
//! regardless of admission order or completion interleaving, and every
//! solved job's checksum is bitwise identical across pool caps — only
//! wall times and cache hit/miss tallies may vary with scheduling.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
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
        /// Cost accounting of the global-stage solve (boxed: it is an
        /// order of magnitude larger than the `Failed` variant).
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
    /// of this campaign's simulator group after the run. Campaigns with
    /// equal model keys share the counter; at pool caps above 1 the
    /// tally may exceed the single-threaded value, never undercount
    /// sharing.
    pub cache_hits: usize,
    /// Misses on the shared cache after the run (= distinct operators
    /// factored, at pool cap 1).
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
    /// by provenance and skipped global assembly
    /// ([`GlobalStats::operator_reused`]) — at pool cap 1, jobs minus
    /// distinct arrays.
    pub fn operators_reused(&self) -> usize {
        self.jobs
            .iter()
            .filter(
                |j| matches!(&j.outcome, JobOutcome::Solved { stats, .. } if stats.operator_reused),
            )
            .count()
    }
}

/// The concurrent campaign scheduler. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct CampaignRunner;

/// One admitted job, resolved to indices.
#[derive(Clone, Copy)]
struct Job {
    /// Position in the canonical report order (campaign-major).
    slot: usize,
    campaign: usize,
    array: usize,
    load: usize,
}

impl CampaignRunner {
    /// A runner with round-robin fairness. At most [`WorkPool`]-cap jobs
    /// are in flight at once.
    pub fn new() -> Self {
        Self
    }

    /// Runs every campaign to completion and returns one report per
    /// campaign, in input order.
    ///
    /// Simulators are built up-front, one per distinct
    /// [`model_key`](CampaignSpec::model_key); jobs then drain through
    /// the shared [`WorkPool`]. Individual job failures are contained in
    /// their [`JobReport`]s — this method only fails when a *model*
    /// cannot be built at all.
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

        // Canonical slots: campaign-major, array-major, load-minor.
        let mut per_campaign: Vec<Vec<Job>> = Vec::with_capacity(specs.len());
        let mut slot = 0;
        for (ci, spec) in specs.iter().enumerate() {
            let mut jobs = Vec::with_capacity(spec.arrays.len() * spec.loads.len());
            for ai in 0..spec.arrays.len() {
                for li in 0..spec.loads.len() {
                    jobs.push(Job {
                        slot,
                        campaign: ci,
                        array: ai,
                        load: li,
                    });
                    slot += 1;
                }
            }
            per_campaign.push(jobs);
        }
        let total = slot;

        // Admission queue, the order jobs are *offered* to workers: round
        // robin, one job from each campaign in turn, so a large campaign
        // cannot starve a small one.
        let rounds = per_campaign.iter().map(Vec::len).max().unwrap_or(0);
        let mut queue: Vec<Job> = Vec::with_capacity(total);
        for round in 0..rounds {
            for jobs in &per_campaign {
                if let Some(job) = jobs.get(round) {
                    queue.push(*job);
                }
            }
        }

        let pool = WorkPool::current();
        let workers = pool.cap().min(total.max(1));

        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<JobReport>>> = Mutex::new(vec![None; total]);
        pool.scope_workers(workers, |_worker| loop {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            let Some(job) = queue.get(idx) else { break };
            let spec = &specs[job.campaign];
            let sim = &groups[group_of[job.campaign]].1;
            let report = run_job(spec, sim, job);
            results.lock().expect("results lock")[job.slot] = Some(report);
        });

        let mut slots = results.into_inner().expect("results lock").into_iter();
        let mut reports = Vec::with_capacity(specs.len());
        for (ci, spec) in specs.iter().enumerate() {
            let jobs: Vec<JobReport> = per_campaign[ci]
                .iter()
                .map(|_| slots.next().flatten().expect("every slot filled"))
                .collect();
            let sim = &groups[group_of[ci]].1;
            let cache = sim.factor_cache();
            reports.push(CampaignReport {
                name: spec.name.clone(),
                jobs,
                cache_hits: cache.hits(),
                cache_misses: cache.misses(),
                local_stage: LocalStageCost::of(sim),
            });
        }
        Ok(reports)
    }
}

/// Solves one job with full fault containment: typed errors and panics
/// both land in [`JobOutcome::Failed`].
fn run_job(spec: &CampaignSpec, sim: &MoreStressSimulator, job: &Job) -> JobReport {
    let load = spec.loads[job.load];
    let outcome = if !load.is_finite() {
        JobOutcome::Failed {
            error: format!("load {load} is not finite"),
        }
    } else {
        match panic::catch_unwind(AssertUnwindSafe(|| solve_job(spec, sim, job, load))) {
            Ok(Ok(outcome)) => outcome,
            Ok(Err(e)) => JobOutcome::Failed {
                error: e.to_string(),
            },
            // `&*payload`, not `&payload`: coercing `&Box<dyn Any>` would
            // make the *box* the `Any` and every downcast miss.
            Err(payload) => JobOutcome::Failed {
                error: format!("panic: {}", panic_message(&*payload)),
            },
        }
    };
    JobReport {
        campaign: spec.name.clone(),
        array_index: job.array,
        load_index: job.load,
        load,
        outcome,
    }
}

fn solve_job(
    spec: &CampaignSpec,
    sim: &MoreStressSimulator,
    job: &Job,
    load: f64,
) -> Result<JobOutcome, RomError> {
    let layout = spec.arrays[job.array].layout();
    let solution = sim.solve_array(&layout, load, &GlobalBc::ClampedTopBottom)?;
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
