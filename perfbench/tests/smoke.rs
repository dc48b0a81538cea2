//! Smoke sizes (FALCON-8, a few hundred traces) of every workload,
//! untraced and traced: every catalogued metric is printed with its
//! unit and base, results are checked correct, and the seed changes the
//! inputs but not the metric set.

use falcon_perfbench::metrics::{Spec, END_TO_END, PER_LAYER};
use falcon_perfbench::{
    report_lines, result_line, run, Outcome, Scale, Workload, HELDOUT_SEED, REFERENCE_SEED,
};
use std::path::Path;
use std::sync::Mutex;

/// The obs registry, event sink and executor width are process-global:
/// runs in one test binary must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn smoke(w: Workload, seed: u64, traced: bool) -> Outcome {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    std::fs::create_dir_all(&dir).expect("test scratch dir");
    run(w, seed, 1, traced, Scale::Smoke, &dir)
}

fn assert_prints(o: &Outcome, catalogue: &[Spec]) {
    let names: Vec<&str> = o.metrics.iter().map(|m| m.spec.name).collect();
    let want: Vec<&str> = catalogue.iter().map(|s| s.name).collect();
    assert_eq!(names, want, "metric set");
    let report = report_lines(o);
    let result = result_line(o);
    for s in catalogue {
        let line = report
            .iter()
            .find(|l| l.starts_with(&format!("# metric {} = ", s.name)))
            .unwrap_or_else(|| panic!("{} not printed", s.name));
        assert!(line.contains(&format!(" {}  [{}]", s.unit, s.base)), "{line}");
        assert!(!s.base.is_empty());
        let entry = format!("\"{}\": {{\"value\": ", s.name);
        let at = result.find(&entry).unwrap_or_else(|| panic!("{} missing from {result}", s.name));
        let rest = &result[at + entry.len()..];
        let value = rest.split(',').next().expect("value");
        assert!(value.parse::<f64>().expect("numeric value").is_finite());
        assert!(rest.starts_with(&format!("{value}, \"unit\": \"{}\"}}", s.unit)), "{rest}");
    }
    assert!(result.starts_with(&format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct, o.attempted, o.failed
    )));
    let keys = [
        "\"workload\"",
        "\"seed\"",
        "\"nproc\"",
        "\"cpu\"",
        "\"cpa.kernel\"",
        "\"exec.threads\"",
        "\"commit\"",
    ];
    assert!(keys.iter().all(|k| report[0].contains(k)), "fingerprint {}", report[0]);
}

#[test]
fn every_workload_prints_every_metric_and_checks_its_results() {
    for w in Workload::ALL {
        let plain = smoke(w, REFERENCE_SEED, false);
        assert!(
            plain.correct && plain.failed == 0 && plain.attempted > 0,
            "{}: {plain:?}",
            w.name()
        );
        assert_prints(&plain, END_TO_END);
        let value =
            |name: &str| plain.metrics.iter().find(|m| m.spec.name == name).expect("metric").value;
        for s in END_TO_END {
            assert!(value(s.name) > 0.0, "{}: {} must be nonzero", w.name(), s.name);
        }

        let traced = smoke(w, REFERENCE_SEED, true);
        assert!(traced.correct, "{}: traced run failed a check", w.name());
        assert_prints(&traced, PER_LAYER);
        assert!(!traced.self_table.is_empty());
        assert!(traced.trace_lines.iter().any(|l| l.contains("\"bench.span\"")));
        assert!(traced.trace_lines.iter().any(|l| l.contains("\"name\":\"job\"")));
    }
}

#[test]
fn seed_changes_the_inputs_but_not_the_metric_set() {
    let a = smoke(Workload::Oneshot64, REFERENCE_SEED, false);
    let b = smoke(Workload::Oneshot64, HELDOUT_SEED, false);
    let again = smoke(Workload::Oneshot64, REFERENCE_SEED, false);
    assert_ne!(a.inputs_digest, b.inputs_digest);
    assert_eq!(a.inputs_digest, again.inputs_digest);
    let names = |o: &Outcome| o.metrics.iter().map(|m| m.spec.name).collect::<Vec<_>>();
    assert_eq!(names(&a), names(&b));
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for s in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            doc.contains(&format!("\"name\": \"{}\", \"unit\": \"{}\"", s.name, s.unit)),
            "{} ({}) missing from BENCHMARK.json",
            s.name,
            s.unit
        );
    }
    let workloads =
        doc.split("\"workloads\"").nth(1).and_then(|r| r.split(']').next()).expect("workloads");
    let names: Vec<&str> =
        workloads.split("\"name\": \"").skip(1).filter_map(|r| r.split('"').next()).collect();
    assert!(names.len() >= 2, "{names:?}");
    assert!(names.iter().all(|n| Workload::parse(n).is_some()), "unknown workload in {names:?}");
}
