//! Fig. 9: strong scaling of global seismic wave propagation.
//!
//! Paper table: 32,640..223,752 Jaguar cores, fixed 170M-element
//! degree-6 mesh (53G unknowns, PREM, >=10 points per wavelength);
//! columns: meshing time, wave-prop time per step, parallel efficiency
//! (0.99-1.02), double-precision Tflops. Scaled down: a fixed
//! wavelength-adapted mesh at laptop size, simulated ranks sweep 1..=4,
//! same columns (flops are hand-counted like the paper's).

use std::sync::Arc;

use forust::connectivity::builders;
use forust::dim::D3;
use forust::forest::Forest;
use forust_comm::run_spmd;
use forust_geom::{Mapping, ShellMap};
use forust_seismic::{prem_like_at, SeismicConfig, SeismicSolver};

const STEPS: usize = 4;

fn main() {
    println!("# Fig. 9 reproduction: strong scaling of seismic wave propagation");
    println!("# shell24, PREM-like model, wavelength-adapted mesh, fixed global size\n");
    println!(
        "{:>5} {:>9} {:>11} {:>10} {:>12} {:>9} {:>9}",
        "P", "elems", "unknowns", "mesh (s)", "wave/step(s)", "par eff", "Gflops"
    );
    let mut csv =
        String::from("ranks,elements,unknowns,meshing_s,wave_per_step_s,par_eff,gflops\n");
    let mut base: Option<f64> = None;
    for p in [1usize, 2, 4] {
        let results = run_spmd(p, |comm| {
            let conn = Arc::new(builders::shell24());
            let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
            let map: Arc<dyn Mapping<D3> + Send + Sync> = Arc::new(ShellMap::new(conn, 0.55, 1.0));
            let config = SeismicConfig {
                degree: 3,
                min_level: 1,
                max_level: 2,
                f0: 4.0,
                ppw: 6.0,
                ..Default::default()
            };
            let mut s = SeismicSolver::new(comm, forest, map, config, prem_like_at);
            for _ in 0..STEPS {
                s.step(comm);
            }
            (
                s.forest.num_global(),
                s.num_global_unknowns(),
                s.timers.meshing.as_secs_f64(),
                s.timers.wave_prop.as_secs_f64() / s.timers.steps as f64,
                s.flops_per_step(),
            )
        });
        let r = results
            .into_iter()
            .reduce(|a, b| (a.0, a.1, a.2.max(b.2), a.3.max(b.3), a.4))
            .expect("ranks");
        let eff = match base {
            None => {
                base = Some(r.3);
                1.0
            }
            Some(t1) => t1 / (p as f64 * r.3),
        };
        let gflops = r.4 as f64 / r.3 / 1e9;
        println!(
            "{:>5} {:>9} {:>11} {:>10.2} {:>12.4} {:>9.2} {:>9.2}",
            p, r.0, r.1, r.2, r.3, eff, gflops
        );
        csv.push_str(&format!(
            "{p},{},{},{},{},{eff},{gflops}\n",
            r.0, r.1, r.2, r.3
        ));
    }
    println!(
        "\npaper reference: meshing 6.3..47.6 s vs hours of stepping; par eff \
         0.99-1.02 from 32K to 224K cores; 25.6..175.6 Tflops"
    );
    println!(
        "note: simulated ranks share one physical core, so wall-clock parallel \
         efficiency here reflects oversubscription; the per-rank work split is \
         what scales (see CSV)."
    );
    std::fs::write("fig9_strong_seismic.csv", csv).expect("write csv");
    println!("wrote fig9_strong_seismic.csv");
}
