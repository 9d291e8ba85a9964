//! Regenerates the MORE-Stress paper's tables and figures.
//!
//! ```sh
//! cargo run -p morestress-bench --bin repro --release -- all --scale small
//! cargo run -p morestress-bench --bin repro --release -- table1 --scale paper
//! ```
//!
//! Subcommands: `table1`, `table2`, `table3`, `fig6`, `all`.
//! Scales: `small` (default, laptop minutes) or `paper` (closer to the
//! paper's sizes). The full-FEM reference stays capped at `Scale::fem_limit`
//! blocks per side (6 at `small`, 10 at `paper`); larger rows print `-` for
//! the error columns.

use morestress_bench::{
    fmt_bytes, fmt_err, one_shot, peak_rss_bytes, table1_row, table2_row, table2_setup,
    table3_series, Row, Scale,
};
use morestress_mesh::TsvGeometry;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which = "all".to_string();
    let mut scale = Scale::small();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "table1" | "table2" | "table3" | "fig6" | "all" => which = a.clone(),
            "--scale" => {
                let Some(name) = it.next() else {
                    usage_error("--scale needs a value");
                };
                scale = Scale::from_name(name)
                    .unwrap_or_else(|| usage_error(&format!("unknown scale '{name}'")));
            }
            other => usage_error(&format!("unknown argument '{other}'")),
        }
    }

    println!("MORE-Stress reproduction harness — scale '{}'", scale.name);
    println!("(absolute numbers are laptop-scale; compare *shapes* to the paper)\n");
    let run_all = which == "all";
    if run_all || which == "table1" {
        table1(&scale);
    }
    if run_all || which == "table2" {
        table2(&scale);
    }
    if run_all || which == "table3" {
        table3(&scale, false);
    }
    if run_all || which == "fig6" {
        table3(&scale, true);
    }
    if let Some(rss) = peak_rss_bytes() {
        println!("\n[process peak RSS: {}]", fmt_bytes(rss));
    }
}

/// Reports a bad command line with the usage line and exits with status 2,
/// before any compute.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: repro [table1|table2|table3|fig6|all] [--scale small|paper]");
    std::process::exit(2);
}

fn print_rows(rows: &[Row]) {
    let labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
    let header = labels
        .iter()
        .map(|l| format!("{l:>12}"))
        .collect::<Vec<_>>()
        .join("");
    println!("{:31}{header}", "");
    let fem_time: Vec<String> = rows
        .iter()
        .map(|r| r.fem.map_or("-".into(), |m| format!("{:.2?}", m.time)))
        .collect();
    let fem_mem: Vec<String> = rows
        .iter()
        .map(|r| r.fem.map_or("-".into(), |m| fmt_bytes(m.bytes)))
        .collect();
    print_line("FEM (ours)", "time", &fem_time);
    print_line("", "memory", &fem_mem);
    print_line(
        "Linear superposition",
        "time",
        &rows
            .iter()
            .map(|r| format!("{:.2?}", r.superposition.time))
            .collect::<Vec<_>>(),
    );
    print_line(
        "",
        "memory",
        &rows
            .iter()
            .map(|r| fmt_bytes(r.superposition.bytes))
            .collect::<Vec<_>>(),
    );
    print_line(
        "",
        "error",
        &rows
            .iter()
            .map(|r| fmt_err(r.superposition.error))
            .collect::<Vec<_>>(),
    );
    print_line(
        "Ours (MORE-Stress)",
        "time",
        &rows
            .iter()
            .map(|r| format!("{:.2?}", r.rom.time))
            .collect::<Vec<_>>(),
    );
    print_line(
        "",
        "memory",
        &rows
            .iter()
            .map(|r| fmt_bytes(r.rom.bytes))
            .collect::<Vec<_>>(),
    );
    print_line(
        "",
        "error",
        &rows
            .iter()
            .map(|r| fmt_err(r.rom.error))
            .collect::<Vec<_>>(),
    );
    // Improvement rows, as in the paper.
    let speedup: Vec<String> = rows
        .iter()
        .map(|r| {
            r.fem.map_or("-".into(), |m| {
                format!(
                    "{:.0}x",
                    m.time.as_secs_f64() / r.rom.time.as_secs_f64().max(1e-9)
                )
            })
        })
        .collect();
    let memred: Vec<String> = rows
        .iter()
        .map(|r| {
            r.fem.map_or("-".into(), |m| {
                format!("{:.0}x", m.bytes as f64 / r.rom.bytes.max(1) as f64)
            })
        })
        .collect();
    let acc: Vec<String> = rows
        .iter()
        .map(|r| match (r.superposition.error, r.rom.error) {
            (Some(ls), Some(rom)) if rom > 0.0 => format!("{:.1}x", ls / rom),
            _ => "-".into(),
        })
        .collect();
    print_line("Improve. over FEM", "time", &speedup);
    print_line("", "memory", &memred);
    print_line("Improve. over LS", "accuracy", &acc);
}

fn print_line(group: &str, what: &str, cells: &[String]) {
    let row = cells
        .iter()
        .map(|c| format!("{c:>12}"))
        .collect::<Vec<_>>()
        .join("");
    println!("{group:<22}{what:>9}{row}");
}

fn table1(scale: &Scale) {
    println!("== Table 1: standalone TSV arrays (scenario 1) ==");
    for pitch in [15.0, 10.0] {
        let geom = TsvGeometry::paper_defaults(pitch);
        println!("\n-- p = {pitch} µm --");
        let shot = one_shot(&geom, scale, false).expect("one-shot stage");
        println!(
            "one-shot local stage: {:.2?} (superposition kernel: {:.2?})",
            shot.local_stage_time, shot.kernel_time
        );
        let rows: Vec<Row> = scale
            .sizes
            .iter()
            .map(|&s| table1_row(&geom, scale, &shot, s).expect("table1 row"))
            .collect();
        print_rows(&rows);
    }
}

fn table2(scale: &Scale) {
    println!("\n== Table 2: sub-modeled array in a chiplet (scenario 2) ==");
    for pitch in [15.0, 10.0] {
        let geom = TsvGeometry::paper_defaults(pitch);
        println!("\n-- p = {pitch} µm --");
        let shot = one_shot(&geom, scale, true).expect("one-shot stage");
        let setup = table2_setup(&geom, scale).expect("chiplet setup");
        println!(
            "coarse chiplet solve: {:.2?}, warpage {:.2} µm; array {}x{} (+{} dummy rings)",
            setup.chiplet.solve_time,
            setup.chiplet.warpage(),
            scale.table2_core,
            scale.table2_core,
            scale.table2_rings,
        );
        let rows: Vec<Row> = (0..5)
            .map(|loc| table2_row(&geom, scale, &shot, &setup, loc).expect("table2 row"))
            .collect();
        print_rows(&rows);
    }
}

fn table3(scale: &Scale, as_figure: bool) {
    let geom = TsvGeometry::paper_defaults(15.0);
    let series = table3_series(&geom, scale).expect("table3 series");
    if as_figure {
        println!("\n== Fig. 6: error & runtime vs element DoFs n (log-scale error) ==");
        println!(
            "{:>6} {:>8} {:>12} {:>14}",
            "n", "error%", "global", "(nx,ny,nz)"
        );
        for p in &series {
            println!(
                "{:>6} {:>8.3} {:>12.2?}   ({m},{m},{m})",
                p.n,
                p.error * 100.0,
                p.global_time,
                m = p.order
            );
        }
        return;
    }
    println!(
        "\n== Table 3: convergence on a {}x{} array, p = 15 µm ==",
        scale.table3_size, scale.table3_size
    );
    println!(
        "{:>10} {:>6} {:>14} {:>14} {:>9}",
        "(nx,ny,nz)", "n", "local stage", "global stage", "error"
    );
    for p in &series {
        println!(
            "({m},{m},{m})    {:>6} {:>14.2?} {:>14.2?} {:>8.3}%",
            p.n,
            p.local_time,
            p.global_time,
            p.error * 100.0,
            m = p.order
        );
    }
}
