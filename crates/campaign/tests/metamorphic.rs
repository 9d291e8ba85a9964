//! The campaign-level metamorphic contract, checked on the results a
//! `CampaignRunner` reports for `examples/campaign.yml`:
//!
//! * permuting the arrays and the loads of a spec permutes its jobs and
//!   changes nothing else — every (array, load) job keeps its checksum and
//!   peaks bit for bit;
//! * the field is linear in ΔT: a ΔT = 0 job reports exactly zero peaks,
//!   and scaling the load scales both peaks.

use morestress_campaign::{CampaignReport, CampaignRunner, CampaignSpec, JobOutcome};

fn example() -> CampaignSpec {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/campaign.yml");
    CampaignSpec::from_file(path).expect("examples/campaign.yml parses")
}

fn run(spec: CampaignSpec) -> CampaignReport {
    let mut reports = CampaignRunner::new().run(&[spec]).expect("model builds");
    assert_eq!(reports.len(), 1);
    reports.pop().expect("one campaign in, one report out")
}

/// `(checksum, peak von Mises, peak |u|)` of the job solving `array` under
/// `load`.
fn job(report: &CampaignReport, array: usize, load: usize) -> (u64, f64, f64) {
    let job = report
        .jobs
        .iter()
        .find(|j| (j.array_index, j.load_index) == (array, load))
        .unwrap_or_else(|| panic!("no job for array {array} load {load}"));
    match &job.outcome {
        JobOutcome::Solved {
            checksum,
            peak_von_mises,
            peak_displacement,
            ..
        } => (*checksum, *peak_von_mises, *peak_displacement),
        JobOutcome::Failed { error } => panic!("array {array} load {load} failed: {error}"),
    }
}

#[test]
fn permuting_arrays_and_loads_permutes_the_jobs_bit_for_bit() {
    let spec = example();
    let (arrays, loads) = (spec.arrays.len(), spec.loads.len());
    assert!(
        arrays >= 2 && loads >= 2,
        "the permutation must move something"
    );
    let mut permuted = spec.clone();
    permuted.arrays.reverse();
    permuted.loads.rotate_left(1);

    let original = run(spec);
    let moved = run(permuted);
    assert_eq!(moved.jobs.len(), original.jobs.len());
    for a in 0..arrays {
        for l in 0..loads {
            // Permuted array `a` is original `arrays − 1 − a`; permuted load
            // `l` is original `l + 1` (mod loads).
            let (sum, vm, u) = job(&moved, a, l);
            let (sum0, vm0, u0) = job(&original, arrays - 1 - a, (l + 1) % loads);
            assert_eq!(sum, sum0, "array {a} load {l}: checksum");
            assert_eq!(
                vm.to_bits(),
                vm0.to_bits(),
                "array {a} load {l}: peak von Mises"
            );
            assert_eq!(u.to_bits(), u0.to_bits(), "array {a} load {l}: peak |u|");
        }
    }
}

#[test]
fn zero_load_is_zero_field_and_peaks_scale_with_the_load() {
    let mut spec = example();
    spec.loads = vec![0.0, -100.0, -250.0];
    let arrays = spec.arrays.len();
    let report = run(spec);
    for a in 0..arrays {
        let (_, vm_zero, u_zero) = job(&report, a, 0);
        assert_eq!(vm_zero, 0.0, "array {a}: ΔT = 0 peak von Mises");
        assert_eq!(u_zero, 0.0, "array {a}: ΔT = 0 peak |u|");
        let (_, vm_100, u_100) = job(&report, a, 1);
        let (_, vm_250, u_250) = job(&report, a, 2);
        assert!(
            vm_100 > 0.0 && u_100 > 0.0,
            "array {a}: a real load deforms"
        );
        for (what, low, high) in [
            ("peak von Mises", vm_100, vm_250),
            ("peak |u|", u_100, u_250),
        ] {
            let rel = (high - 2.5 * low).abs() / high.abs();
            assert!(
                rel <= 1e-12,
                "array {a}: {what} at −250 is {high}, 2.5 × {low} at −100 ({rel:.2e} relative)"
            );
        }
    }
}
