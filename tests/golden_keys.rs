//! Golden-value regression tests for the on-disk cache keys and the
//! compiled output.
//!
//! `Circuit::content_digest` and `zz_core::pipeline::shape_key` key the
//! persistent artifact store ([`zz_persist`]), so their outputs are part
//! of the on-disk format: if either silently changed meaning, a warm cache
//! would serve artifacts for the *wrong* circuits. These tests pin exact
//! outputs for fixed inputs. If one fails because a key function had to
//! change, bump [`zz_persist::SCHEMA_VERSION`] in the same PR and update
//! the pinned values — never update the values alone.
//!
//! `compiled_codec_digest_is_pinned` pins the compiler's *output*: the
//! codec bytes of every `Compiled` plan over the pulse × scheduler matrix
//! plus non-default α/k/R. A refactor of the compile path must leave
//! these digests unchanged; an intended change of output also bumps
//! `zz_core::persist::PIPELINE_REVISION`.

use std::sync::Arc;

use zz_circuit::bench::{generate, BenchmarkKind};
use zz_circuit::{Circuit, Gate};
use zz_core::pipeline::{shape_key, PassManager};
use zz_core::{PulseMethod, SchedulerKind};
use zz_persist::{fnv1a, Encode, Encoder};
use zz_sched::zzx::Requirement;
use zz_topology::Topology;

/// A fixed hand-built circuit with parameter-free gates.
fn bell_plus() -> Circuit {
    let mut c = Circuit::new(3);
    c.push(Gate::H, &[0])
        .push(Gate::Cnot, &[0, 1])
        .push(Gate::X, &[2])
        .push(Gate::Swap, &[1, 2]);
    c
}

/// A fixed circuit whose digest depends on exact angle bit patterns.
fn rotations() -> Circuit {
    let mut c = Circuit::new(2);
    c.push(Gate::Rx(0.5), &[0])
        .push(Gate::Rz(-std::f64::consts::PI), &[1])
        .push(Gate::U3(0.1, 0.2, 0.3), &[0])
        .push(Gate::Rzz(2.0_f64.sqrt()), &[0, 1]);
    c
}

#[test]
fn content_digest_is_pinned() {
    assert_eq!(
        bell_plus().content_digest(),
        0xf7205d647c7aa7edu64,
        "bell_plus"
    );
    assert_eq!(
        rotations().content_digest(),
        0xdef101fe87bc4d90u64,
        "rotations"
    );
    // Seeded benchmark generation feeds the same keys, so its stability is
    // pinned too (kind, size and seed are part of the figure pipeline).
    assert_eq!(
        generate(BenchmarkKind::Qft, 4, 7).content_digest(),
        0x3f047223346b62e1u64,
        "qft-4 seed 7"
    );
}

#[test]
fn shape_key_is_pinned() {
    assert_eq!(
        shape_key(&bell_plus(), &Topology::grid(2, 2)),
        0x8c6121df6931459eu64
    );
    assert_eq!(
        shape_key(&bell_plus(), &Topology::ibmq_vigo()),
        0xea4aa0ec0710b3acu64
    );
    assert_eq!(
        shape_key(&rotations(), &Topology::line(2)),
        0x44471d4ef01894eau64
    );
    // The at-scale lattice added by the compile-path scaling work: its
    // shape keys join the on-disk format the moment large-device
    // artifacts are cached, so they are pinned like the paper grids.
    assert_eq!(
        shape_key(&bell_plus(), &Topology::heavy_hex(3)),
        0x712055fcf0b62175u64
    );
}

#[test]
fn digests_depend_on_angle_bits_not_angle_values() {
    // −0.0 == 0.0 numerically, but the bit patterns differ, so the digests
    // must differ: caches key exact compilation inputs.
    let mut pos = Circuit::new(1);
    pos.push(Gate::Rz(0.0), &[0]);
    let mut neg = Circuit::new(1);
    neg.push(Gate::Rz(-0.0), &[0]);
    assert_ne!(pos.content_digest(), neg.content_digest());
}

/// One pinned compile: a benchmark on a device under one configuration.
struct Case {
    label: &'static str,
    kind: BenchmarkKind,
    n: usize,
    topo: Topology,
    method: PulseMethod,
    scheduler: SchedulerKind,
    alpha_k: Option<(f64, usize)>,
    requirement: Option<Requirement>,
}

/// QAOA-6 on the 2×3 grid over every pulse method × scheduler, plus
/// QFT-9 on the 3×3 grid at two non-default (α, k, R) settings.
fn compiled_cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for method in PulseMethod::ALL {
        for scheduler in [SchedulerKind::ParSched, SchedulerKind::ZzxSched] {
            cases.push(Case {
                label: "qaoa-6@2x3",
                kind: BenchmarkKind::Qaoa,
                n: 6,
                topo: Topology::grid(2, 3),
                method,
                scheduler,
                alpha_k: None,
                requirement: None,
            });
        }
    }
    for (alpha_k, requirement) in [
        ((0.25, 1), None),
        (
            (2.0, 8),
            Some(Requirement {
                nq_limit: 3,
                nc_limit: 5,
            }),
        ),
    ] {
        cases.push(Case {
            label: "qft-9@3x3",
            kind: BenchmarkKind::Qft,
            n: 9,
            topo: Topology::grid(3, 3),
            method: PulseMethod::Pert,
            scheduler: SchedulerKind::ZzxSched,
            alpha_k: Some(alpha_k),
            requirement,
        });
    }
    cases
}

/// `fnv1a` of the codec payload of the plan `case` compiles to.
fn compiled_digest(case: &Case) -> u64 {
    let mut builder = PassManager::builder()
        .topology(case.topo.clone())
        .pulse_method(case.method)
        .scheduler(case.scheduler);
    if let Some((alpha, k)) = case.alpha_k {
        builder = builder.alpha(alpha).k(k);
    }
    if let Some(req) = case.requirement {
        builder = builder.requirement(req);
    }
    let compiled = builder
        .build()
        .run(Arc::new(generate(case.kind, case.n, 7)))
        .expect("paper benchmarks fit their devices")
        .compiled;
    let mut enc = Encoder::new();
    compiled.encode(&mut enc);
    fnv1a(&enc.finish())
}

#[test]
fn compiled_codec_digest_is_pinned() {
    let pinned: [u64; 10] = [
        0xd921afc8eb45b6af, // Gaussian+ParSched
        0xb15c3afe7e2a4ef1, // Gaussian+ZZXSched
        0xafe03e4006b16c5b, // OptCtrl+ParSched
        0x748f69c20f125d39, // OptCtrl+ZZXSched
        0x807a98bdef4b97f8, // Pert+ParSched
        0x1904715bf044f3c6, // Pert+ZZXSched
        0xa416360d16ee192e, // DCG+ParSched
        0x2a447fde8d403608, // DCG+ZZXSched
        0xc0c4c528181fcdbc, // QFT-9, alpha 0.25, k 1
        0x3c4b2b91d3509db5, // QFT-9, alpha 2, k 8, R {3, 5}
    ];
    let cases = compiled_cases();
    assert_eq!(cases.len(), pinned.len());
    for (case, want) in cases.iter().zip(pinned) {
        assert_eq!(
            compiled_digest(case),
            want,
            "{} {}+{} alpha/k {:?} R {:?}",
            case.label,
            case.method,
            case.scheduler,
            case.alpha_k,
            case.requirement
        );
    }
}

#[test]
#[ignore = "helper for regenerating pinned values after an intentional schema bump"]
fn print_current_keys() {
    for case in compiled_cases() {
        println!(
            "{} {}+{} alpha/k {:?} R {:?} compiled: {:#018x}",
            case.label,
            case.method,
            case.scheduler,
            case.alpha_k,
            case.requirement,
            compiled_digest(&case)
        );
    }
    println!("bell_plus  digest: {:#018x}", bell_plus().content_digest());
    println!("rotations  digest: {:#018x}", rotations().content_digest());
    println!(
        "qft-4/7    digest: {:#018x}",
        generate(BenchmarkKind::Qft, 4, 7).content_digest()
    );
    println!(
        "bell@2x2   shape:  {:#018x}",
        shape_key(&bell_plus(), &Topology::grid(2, 2))
    );
    println!(
        "bell@vigo  shape:  {:#018x}",
        shape_key(&bell_plus(), &Topology::ibmq_vigo())
    );
    println!(
        "rot@line2  shape:  {:#018x}",
        shape_key(&rotations(), &Topology::line(2))
    );
    println!(
        "bell@hhd3  shape:  {:#018x}",
        shape_key(&bell_plus(), &Topology::heavy_hex(3))
    );
}
