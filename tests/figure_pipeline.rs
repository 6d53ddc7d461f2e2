//! Reduced-scale end-to-end runs of the figure pipeline, asserting the
//! *shape* relations the paper reports (Section 6 observations; see
//! `docs/THEORY.md`), which `fpga-rt study figures` shows at full scale:
//!
//! * every analytic test is pessimistic w.r.t. simulation;
//! * simulated EDF-NF accepts at least as much as EDF-FkF per bin;
//! * acceptance decays with utilization.

use fpga_rt::exp::acceptance::standard_evaluators;
use fpga_rt::exp::output::{render_csv, render_text};
use fpga_rt::exp::sweep::{run_pool_sweep, PoolSweepConfig};
use fpga_rt::gen::{FigureWorkload, UtilizationBins};

fn small_sweep(workload: FigureWorkload) -> fpga_rt::exp::SweepResult {
    let mut config = PoolSweepConfig::new(workload, 20, 0xF16);
    config.bins = UtilizationBins::new(0.0, 1.0, 8);
    run_pool_sweep(&config, &standard_evaluators(15.0)).result
}

#[test]
fn fig3a_shape_relations_hold() {
    let r = small_sweep(FigureWorkload::fig3a());
    let dp = r.series_named("DP").unwrap();
    let gn1 = r.series_named("GN1").unwrap();
    let gn2 = r.series_named("GN2").unwrap();
    let nf = r.series_named("SIM-NF").unwrap();
    let fkf = r.series_named("SIM-FkF").unwrap();

    for i in 0..dp.points.len() {
        // Soundness at the sample level makes these count inequalities
        // exact, not statistical: the same tasksets feed every series.
        assert!(dp.points[i].accepted <= fkf.points[i].accepted, "DP ≤ SIM-FkF at bin {i}");
        assert!(dp.points[i].accepted <= nf.points[i].accepted, "DP ≤ SIM-NF at bin {i}");
        assert!(gn2.points[i].accepted <= fkf.points[i].accepted, "GN2 ≤ SIM-FkF at bin {i}");
        assert!(gn2.points[i].accepted <= nf.points[i].accepted, "GN2 ≤ SIM-NF at bin {i}");
        assert!(gn1.points[i].accepted <= nf.points[i].accepted, "GN1 ≤ SIM-NF at bin {i}");
        assert!(fkf.points[i].accepted <= nf.points[i].accepted, "SIM-FkF ≤ SIM-NF at bin {i}");
    }

    // Decay: first-bin acceptance ≥ last-bin acceptance for every series.
    for s in &r.series {
        assert!(
            s.points.first().unwrap().ratio() >= s.points.last().unwrap().ratio(),
            "{} should decay with utilization",
            s.name
        );
    }
}

#[test]
fn fig4a_spatially_heavy_tests_struggle() {
    // Paper: "For spatially-heavy tasksets ... all three tests exhibit poor
    // performance." At mid utilization the simulation should accept clearly
    // more than any analytic test in aggregate.
    let r = small_sweep(FigureWorkload::fig4a());
    let total = |name: &str| -> usize {
        r.series_named(name).unwrap().points.iter().map(|p| p.accepted).sum()
    };
    let best_test = total("DP").max(total("GN1")).max(total("GN2"));
    assert!(total("SIM-NF") >= best_test, "simulation accepts at least as much as the best test");
}

#[test]
fn renderers_agree_on_data() {
    let r = small_sweep(FigureWorkload::fig3b());
    let text = render_text(&r);
    let csv = render_csv(&r);
    assert!(text.contains("fig3b"));
    // CSV has one header plus one row per bin.
    assert_eq!(csv.lines().count(), 1 + 8);
    for s in &r.series {
        assert!(text.contains(&s.name));
        assert!(csv.lines().next().unwrap().contains(&s.name));
    }
}
