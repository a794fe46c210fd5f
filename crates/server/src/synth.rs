//! The synthesiser of `zooid-dsl` ([`zooid_dsl::synth`]) at its old path:
//! skeleton endpoints certified from projections, and byzantine drivers.
//! The names stay importable from here because the frozen benchmark and
//! the `load_sim` example import them from `zooid_server`. The tests below
//! run the synthesised casts in `zooid-runtime`'s `SessionHarness`, which
//! `zooid-dsl` cannot link without a dependency cycle.

pub use zooid_dsl::synth::*;

#[cfg(test)]
mod tests {
    use super::*;
    use zooid_dsl::Protocol;
    use zooid_mpst::generators;
    use zooid_runtime::SessionHarness;

    #[test]
    fn skeletons_certify_and_run_for_the_named_protocols() {
        for (name, g) in [
            ("ring", generators::ring3()),
            ("two_buyer", generators::two_buyer()),
            ("fanout", generators::fanout_n(4)),
        ] {
            let protocol = Protocol::new(name, g).unwrap();
            let endpoints = skeleton_endpoints(&protocol).unwrap();
            assert_eq!(endpoints.len(), protocol.roles().len());
            let mut harness = SessionHarness::new(protocol.clone());
            for (cert, ext) in endpoints {
                harness.add_endpoint(cert, ext).unwrap();
            }
            harness.with_max_steps(64);
            let report = harness.run().unwrap();
            assert!(report.compliant, "{name}: {:?}", report.violations);
        }
    }

    #[test]
    fn byzantine_drivers_land_in_their_expected_class() {
        for (name, g) in [
            ("ring", generators::ring3()),
            ("two_buyer", generators::two_buyer()),
            ("fanout", generators::fanout_n(4)),
        ] {
            let protocol = Protocol::new(name, g).unwrap();
            for mutation in ByzantineMutation::all() {
                let Some(driver) = byzantine_driver(&protocol, mutation).unwrap() else {
                    continue;
                };
                assert_eq!(driver.mutation, mutation);
                let mut harness = SessionHarness::new(protocol.clone());
                for (cert, ext) in driver.endpoints {
                    harness.add_endpoint(cert, ext).unwrap();
                }
                harness.with_max_steps(64);
                let report = harness.run().unwrap();
                match mutation.expected() {
                    ExpectedClass::Violation => assert!(
                        !report.compliant,
                        "{name}/{mutation}: expected a monitor violation"
                    ),
                    ExpectedClass::Silence => assert!(
                        report.compliant && !report.complete,
                        "{name}/{mutation}: expected compliant-but-incomplete silence \
                         (compliant={}, complete={})",
                        report.compliant,
                        report.complete
                    ),
                }
            }
        }
    }

    #[test]
    fn recursive_protocols_synthesize_loops() {
        let protocol = Protocol::new("pipeline", generators::pipeline()).unwrap();
        let endpoints = skeleton_endpoints(&protocol).unwrap();
        // The pipeline loops forever; a bounded run must hit the step limit.
        let mut harness = SessionHarness::new(protocol);
        for (cert, ext) in endpoints {
            harness.add_endpoint(cert, ext).unwrap();
        }
        harness.with_max_steps(10);
        let report = harness.run().unwrap();
        assert!(report.compliant, "{:?}", report.violations);
    }
}
