//! Golden numbers for `examples/campaign.yml`: the six jobs' peak von
//! Mises stress and peak displacement, as the production path (default
//! `DirectCholesky`, `blocked` kernel) computed them when the solver was
//! cut down to that one path. A refactor that claims "same numbers" has
//! to keep these to ≤1e-9 relative — and "bit for bit" has to keep
//! `CHECKSUMS`, the jobs' FNV-1a checksums over every displacement and
//! sampled stress value (equal at every pool cap). A PR that means to move
//! bits updates them and says so in CHANGES.md.

use morestress_campaign::{CampaignRunner, CampaignSpec, JobOutcome};

/// `(array, load, peak von Mises [MPa], peak |u| [µm])` per job, in the
/// runner's canonical order.
const GOLDEN: [(usize, usize, f64, f64); 6] = [
    (0, 0, 432.9763580633476, 0.03478241988362226),
    (0, 1, 173.19054322533913, 0.0139129679534489),
    (0, 2, 147.21196174153832, 0.011826022760431567),
    (1, 0, 441.9995067915207, 0.036354435150192856),
    (1, 1, 176.7998027166082, 0.014541774060077145),
    (1, 2, 150.27983230911696, 0.012360507951065573),
];

/// The jobs' checksums, in the same order (recorded at PR 19, `b09ef80`).
const CHECKSUMS: [u64; 6] = [
    0x6a08cb76739c2f06,
    0xf8b9fcc2cfa0c738,
    0x83b711372b60c85b,
    0x052b3d9cd10a072e,
    0xd97ff1b89cbdb85c,
    0xb45e92a68fc59989,
];

#[test]
fn example_campaign_reproduces_the_recorded_peaks() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/campaign.yml");
    let spec = CampaignSpec::from_file(path).expect("examples/campaign.yml parses");
    let tolerance = spec.solver.tolerance;
    let reports = CampaignRunner::new().run(&[spec]).expect("model builds");
    let [report] = &reports[..] else {
        panic!("one campaign in, {} reports out", reports.len());
    };
    assert_eq!(report.solved(), 6);
    assert_eq!(report.jobs.len(), GOLDEN.len());

    let close = |got: f64, want: f64| (got - want).abs() <= 1e-9 * want.abs();
    let golden = GOLDEN.iter().zip(&CHECKSUMS);
    for (job, (&(array, load, von_mises, displacement), &recorded)) in
        report.jobs.iter().zip(golden)
    {
        assert_eq!((job.array_index, job.load_index), (array, load));
        let JobOutcome::Solved {
            peak_von_mises,
            peak_displacement,
            checksum,
            stats,
            ..
        } = &job.outcome
        else {
            panic!("array {array} load {load} failed: {:?}", job.outcome);
        };
        assert!(
            close(*peak_von_mises, von_mises),
            "array {array} load {load}: peak von Mises {peak_von_mises} vs recorded {von_mises}"
        );
        assert!(
            close(*peak_displacement, displacement),
            "array {array} load {load}: peak |u| {peak_displacement} vs recorded {displacement}"
        );
        assert_eq!(
            *checksum, recorded,
            "array {array} load {load}: checksum {checksum:#018x} vs recorded {recorded:#018x}"
        );
        // The spec asks for `verify: report`, so every job carries its
        // true residual.
        let residual = stats
            .verified_residual
            .expect("verify: report records a residual");
        assert!(
            residual <= tolerance,
            "array {array} load {load}: residual {residual} above {tolerance}"
        );
    }
}
