//! `scenario_sim`: reproduction's dominant cost. One pass simulates the
//! seeded scenario on the Small world and writes one MRT archive per
//! collector with `fleet_archives`; decode and detection are not touched.

use std::time::Instant;

use bh_workloads::{fleet_archives, run};

use crate::world::{push_sim_counters, Fingerprint, World};
use crate::{ms, Pass, Tracing};

pub fn pass(world: &World, tracing: Option<&mut Tracing>) -> Pass {
    let begin = Instant::now();
    let output = run(&world.study.topology, world.study.deployment(), &world.scenario);
    let simulated_at = Instant::now();
    let kept = &output.elems[..world.elems.min(output.elems.len())];
    let archives = fleet_archives(kept);
    let end = Instant::now();

    let mut pass = Pass::new(end - begin, kept.len() as u64);
    let fingerprint = match &archives {
        Ok(archives) => Some(Fingerprint::of_archives(archives)),
        Err(e) => {
            pass.fail(format!("archive write failed: {e}"));
            None
        }
    };
    if let Some(fp) = fingerprint.filter(|fp| *fp != world.fingerprint) {
        pass.fail(format!(
            "archives differ from the set-up run: {} vs {}",
            fp.describe(),
            world.fingerprint.describe()
        ));
    }
    let failures = output.run_stats.convergence_failures;
    if failures > 0 {
        pass.fail(format!("{failures} propagation runs did not converge"));
    }

    if let Some(t) = tracing {
        let root = t.trace.call("pass", Some(t.parent), begin, end);
        t.trace.call("routing.sim", Some(root), begin, simulated_at);
        t.trace.call("mrt.write", Some(root), simulated_at, end);
        let s = &mut *t.samples;
        s.push("routing.sim.busy_ms", ms(simulated_at - begin));
        push_sim_counters(s, &output);
        s.push("mrt.write.busy_ms", ms(end - simulated_at));
        let per_elem = (end - simulated_at).as_nanos() as f64 / kept.len().max(1) as f64;
        s.push("mrt.write.ns_per_elem", per_elem);
        if let (Some(fp), Ok(archives)) = (fingerprint, &archives) {
            s.push("mrt.write.bytes_out", fp.bytes as f64);
            s.push("mrt.write.archives", archives.len() as f64);
        }
    }
    pass
}
