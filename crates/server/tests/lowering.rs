//! The fact the batch-only server rests on: a certified process always
//! lowers, and every lowered cast has a batch layout, so every admitted
//! session runs in a batch. `CompiledProc::compile` fails only on an
//! unbound jump or a loop that never reaches a communication, and both
//! certification gates reject those, so `ProtocolArtifacts::endpoint_program`
//! returning `None` — which the server answers by closing the session with
//! every endpoint `Failed` — is not reachable from a `CertifiedProcess`.

use zooid_dsl::{Protocol, WtProc};
use zooid_mpst::generators;
use zooid_mpst::global::GlobalType;
use zooid_proc::{CompiledProc, Externals, Proc};
use zooid_server::synth::skeleton_endpoints;
use zooid_server::ProtocolRegistry;

fn case_studies() -> Vec<(String, GlobalType)> {
    vec![
        ("ring3".to_owned(), generators::ring3()),
        ("ring8".to_owned(), generators::ring_n(8)),
        ("pipeline".to_owned(), generators::pipeline()),
        ("chain5".to_owned(), generators::chain_n(5)),
        ("ping_pong".to_owned(), generators::ping_pong()),
        ("two_buyer".to_owned(), generators::two_buyer()),
        ("fanout5".to_owned(), generators::fanout_n(5)),
        ("branching3".to_owned(), generators::branching(3)),
    ]
}

#[test]
fn every_skeleton_endpoint_lowers() {
    let params = generators::RandomProtocol::default();
    let mut cases = case_studies();
    cases.extend(
        (0..200u64).map(|seed| (format!("seed{seed}"), generators::random_global(seed, &params))),
    );
    let mut registry = ProtocolRegistry::new();
    let mut covered = 0;
    for (name, g) in cases {
        // Random globals need not be well-formed, projectable or have
        // default payloads; the property is about the ones that certify.
        let Ok(protocol) = Protocol::new(name.as_str(), g) else {
            continue;
        };
        let Ok(endpoints) = skeleton_endpoints(&protocol) else {
            continue;
        };
        let Ok(id) = registry.register(protocol) else {
            continue;
        };
        let artifacts = registry.get(id).unwrap();
        for (cert, externals) in &endpoints {
            assert!(
                artifacts
                    .endpoint_program(cert.role(), cert.proc(), externals)
                    .is_some(),
                "{name}: certified endpoint `{}` does not lower",
                cert.role()
            );
        }
        covered += 1;
    }
    assert!(covered >= 50, "corpus too small: {covered}");
}

/// A `None` from lowering cannot be constructed through the public API:
/// every process that fails to lower is refused by both certification gates
/// — even when `WtProc::from_parts_unchecked` pairs it with the very
/// projection it would have to implement — so no `CertifiedProcess` exists to
/// submit, and this test asserts the rejections instead of the server's
/// all-`Failed` outcome (which `session.rs` unit-tests on its own).
#[test]
fn certification_rejects_every_process_that_does_not_lower() {
    let pathologies = [
        Proc::Jump(0),
        Proc::loop_(Proc::Jump(0)),
        Proc::loop_(Proc::loop_(Proc::Jump(1))),
    ];
    let externals = Externals::new();
    for (name, g) in case_studies() {
        let protocol = Protocol::new(name.as_str(), g).unwrap();
        for (role, projected) in protocol.project_all().unwrap() {
            for proc in &pathologies {
                assert!(CompiledProc::compile(proc, &role, &externals).is_err());
                let unchecked = WtProc::from_parts_unchecked(proc.clone(), projected.clone());
                assert!(
                    protocol.implement(&role, unchecked, &externals).is_err(),
                    "{name}/{role}: `implement` certified {proc:?}"
                );
                assert!(
                    protocol
                        .implement_against_projection(&role, proc.clone(), &externals)
                        .is_err(),
                    "{name}/{role}: `implement_against_projection` certified {proc:?}"
                );
            }
        }
    }
}
