//! Regenerates the case-study evaluation of the paper's §5.2 (the §5.1
//! workflow applied to each case study): for every case study, report projectability, certification
//! of all endpoints, the outcome of an end-to-end run with the compliance
//! monitor, and the CFSM safety/liveness verdicts.
//!
//! Run with `cargo run -p zooid-bench --bin case-studies`.

use zooid_bench::all_case_studies;
use zooid_cfsm::check_protocol;
use zooid_runtime::SessionHarness;

fn main() {
    println!(
        "{:<18} {:<10} {:>5} {:>12} {:>10} {:>9} {:>10} {:>9} {:>6}",
        "case study", "section", "roles", "projectable", "certified", "messages", "compliant", "safe", "live"
    );
    println!("{}", "-".repeat(100));
    let mut all_ok = true;
    for case in all_case_studies() {
        let roles = case.protocol.roles();
        let projectable = case.protocol.project_all().is_ok();

        let mut certified = 0usize;
        let mut harness = SessionHarness::new(case.protocol.clone());
        for (role, wt) in &case.endpoints {
            match case.protocol.implement(role, wt.clone(), &case.externals) {
                Ok(cert) => {
                    certified += 1;
                    harness
                        .add_endpoint(cert, case.externals.clone())
                        .expect("endpoint added once");
                }
                Err(e) => eprintln!("  {}::{role}: certification failed: {e}", case.name),
            }
        }
        if let Some(limit) = case.max_steps {
            harness.with_max_steps(limit);
        }
        let (messages, compliant) = match harness.run() {
            Ok(report) => (report.messages_exchanged(), report.compliant),
            Err(e) => {
                eprintln!("  {}: session failed: {e}", case.name);
                (0, false)
            }
        };

        let safety = check_protocol(case.protocol.global(), 2, 200_000)
            .expect("case-study protocols are projectable");

        let row_ok = projectable
            && certified == case.endpoints.len()
            && compliant
            && safety.is_safe()
            && safety.is_live();
        all_ok &= row_ok;
        println!(
            "{:<18} {:<10} {:>5} {:>12} {:>10} {:>9} {:>10} {:>9} {:>6}",
            case.name,
            case.section,
            roles.len(),
            projectable,
            format!("{certified}/{}", case.endpoints.len()),
            messages,
            compliant,
            safety.is_safe(),
            safety.is_live(),
        );
    }
    println!("{}", "-".repeat(100));
    println!(
        "overall: {}",
        if all_ok { "all case studies reproduce" } else { "SOME CASE STUDY FAILED" }
    );
    if !all_ok {
        std::process::exit(1);
    }
}
