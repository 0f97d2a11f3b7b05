//! The benchmark's own determinism and parity checks. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use bpfstor_perfbench::bench::{self, Args, SimDigest};
use bpfstor_perfbench::trace::Tracer;
use bpfstor_perfbench::workloads::{Inputs, Workload};

#[test]
fn same_seed_simulates_the_same_run() {
    for w in Workload::ALL {
        let inputs = Inputs::generate(w, 7);
        assert_eq!(
            inputs,
            Inputs::generate(w, 7),
            "{}: inputs repeat",
            w.name()
        );
        let a = inputs.trial(None).expect("first trial");
        let b = Inputs::generate(w, 7).trial(None).expect("second trial");
        assert!(a.report.chains > 0, "{}: chains completed", w.name());
        assert_eq!(
            SimDigest::of(&a),
            SimDigest::of(&b),
            "{}: simulated metrics repeat",
            w.name()
        );
    }
}

#[test]
fn another_seed_generates_other_inputs() {
    for w in Workload::ALL {
        let (a, b) = (Inputs::generate(w, 7), Inputs::generate(w, 8));
        assert_ne!(a.machine_seed, b.machine_seed, "{}: machine seed", w.name());
        for (ta, tb) in a.tables.iter().zip(&b.tables) {
            assert_ne!(ta, tb, "{}: tables", w.name());
        }
        let (ra, rb) = (
            a.trial(None).expect("seed 7"),
            b.trial(None).expect("seed 8"),
        );
        assert_ne!(
            SimDigest::of(&ra),
            SimDigest::of(&rb),
            "{}: simulated run",
            w.name()
        );
    }
}

#[test]
fn traced_trial_simulates_what_the_untraced_one_does() {
    for w in Workload::ALL {
        let inputs = Inputs::generate(w, 3);
        let plain = inputs.trial(None).expect("untraced");
        let tracer = Tracer::shared();
        let traced = inputs.trial(Some(&tracer)).expect("traced");
        assert_eq!(
            SimDigest::of(&plain),
            SimDigest::of(&traced),
            "{}: parity",
            w.name()
        );
        let totals = tracer.borrow_mut().take_totals();
        assert!(
            totals.image_ns > 0 && totals.app_ns > 0,
            "{}: spans recorded",
            w.name()
        );
        assert_eq!(
            plain.report.exec.interp_ns,
            0,
            "{}: no clock, no host time",
            w.name()
        );
        assert_eq!(
            traced.report.exec.interp_ns > 0,
            w.installs() > 0,
            "{}: the injected clock times every hook hop",
            w.name()
        );
    }
}

#[test]
fn a_traced_run_passes_its_gates_and_reports_every_layer() {
    let args = Args {
        workload: Workload::BtreeHook,
        seed: 5,
        seconds: 0,
        trace: true,
        spans_out: None,
    };
    let out = bench::run(&args).expect("run");
    assert!(out.correct(), "gates: {:?}", out.gate_failures);
    assert_eq!(out.failed, 0);
    for name in [
        "vm.exec_ns_per_hop",
        "kernel.self_ns_per_io",
        "trace.bpf_ns_per_io",
    ] {
        let m = out.metrics.iter().find(|m| m.name == name).expect(name);
        assert!(m.value > 0.0, "{name} = {}", m.value);
    }
}
