//! Figure 8 — the execution architecture (CPU / AVX / GPU) has a large
//! impact on ETL time and a *mixed* impact on query time: the GPU dominates
//! inference-heavy ETL, but for the smaller image-matching query (q1) the
//! offload overhead exceeds the savings, while the larger one (q4) still
//! wins on the GPU.
//!
//! The devices are those of [`deeplens_bench::repro::devices`]: the CPU
//! runs the scalar kernels, AVX the vectorized ones on one core, and the
//! simulated GPU the vectorized ones on many workers behind a busy-waited
//! launch + transfer overhead. Every device must compute the CPU's
//! activations (AVX and GPU bit-identical to each other) and the CPU's
//! pairs for both queries; the harness exits 1 after printing its tables
//! when one does not.

use deeplens_bench::etl::{pc_etl, traffic_etl_default, MATCH_TAU};
use deeplens_bench::queries::q4_person_patches;
use deeplens_bench::report::{ms, time, Table};
use deeplens_bench::repro::devices::{feature_matrix, Backend, PlacementPlanner};
use deeplens_bench::{scale, WORLD_SEED};
use deeplens_core::patch::Patch;
use deeplens_vision::detector::DetectorConfig;

/// Frames per inference batch: one offload per batch on the GPU.
const BATCH: usize = 128;

fn main() {
    let s = scale();
    println!("Fig. 8 | DEEPLENS_SCALE={s}");

    // ---- ETL phase: the paper notes ETL "is dominated by neural network
    // inference time", so this times batched detector inference alone, on
    // luma planes rendered before the clock starts (the rest of ETL —
    // rendering, color conversion, the detection logic — does not depend
    // on the device).
    let ds = deeplens_vision::datasets::TrafficDataset::generate(s, WORLD_SEED);
    let planes: Vec<(Vec<f32>, usize, usize)> = (0..ds.num_frames)
        .map(|t| {
            let [y, _, _] = ds.scene.render_frame(t).to_ycbcr();
            (y.data, y.width as usize, y.height as usize)
        })
        .collect();
    let layers = DetectorConfig::default().cost_layers;
    let mut etl_table = Table::new(
        "Fig. 8 (left) — ETL time (detector inference over the traffic feed) per device",
        &["device", "inference ms", "vs CPU"],
    );
    let mut cpu_time = None;
    for backend in Backend::fig8() {
        // One launch per batch, moving each luma plane in and its
        // activations out (streaming inference).
        let (_, t) = time(|| {
            for chunk in planes.chunks(BATCH) {
                std::hint::black_box(backend.conv_stack_batch(chunk, layers));
            }
        });
        let cpu = *cpu_time.get_or_insert(t);
        let speedup = format!("{:.1}x", cpu.as_secs_f64() / t.as_secs_f64());
        etl_table.row(&[backend.label().to_string(), ms(t), speedup]);
    }
    etl_table.emit("fig8_etl");
    let etl_disagree = etl_disagreement(&planes[..planes.len().min(BATCH)], layers);

    // Query inputs come from the ETL (device-independent content).
    let traffic = traffic_etl_default(s, WORLD_SEED);
    let pc = pc_etl(s, WORLD_SEED);

    // ---- Query phase: all-pairs matching kernels per device ----
    let people = q4_person_patches(&traffic);
    println!(
        "query inputs: q1 images={}, q4 people={}",
        pc.image_patches.len(),
        people.len()
    );

    let mut q_table = Table::new(
        "Fig. 8 (right) — query time (all-pairs image matching) per device",
        &["device", "q1 ms (small)", "q4 ms (large)"],
    );
    // Stack the features, then join all pairs on the device's kernel.
    let all_pairs = |patches: &[Patch], backend: &Backend| {
        let m = feature_matrix(patches).expect("one feature dimension");
        backend.threshold_join(&m, &m, &[MATCH_TAU])
    };
    let mut reference = None;
    let mut disagree = Vec::new();
    for backend in Backend::fig8() {
        let (q1_pairs, t_q1) = time(|| all_pairs(&pc.image_patches, &backend));
        let (q4_pairs, t_q4) = time(|| all_pairs(&people, &backend));
        q_table.row(&[backend.label().to_string(), ms(t_q1), ms(t_q4)]);
        match &reference {
            None => reference = Some((q1_pairs, q4_pairs)),
            Some(cpu) if *cpu != (q1_pairs, q4_pairs) => disagree.push(backend.label()),
            Some(_) => {}
        }
    }
    q_table.emit("fig8_query");

    // ---- The placement planner's calls ----
    let planner = PlacementPlanner::default();
    let dim = 64.0;
    let q1_work_us = (pc.image_patches.len() as f64).powi(2) * dim * 0.001;
    let q4_work_us = (people.len() as f64).powi(2) * dim * 0.001;
    println!(
        "\nPlacementPlanner: q1 -> {}, q4 -> {}",
        planner
            .place(q1_work_us, pc.image_patches.len() * 64 * 4)
            .label(),
        planner.place(q4_work_us, people.len() * 64 * 4).label(),
    );
    println!(
        "\nPaper shape: GPU wins ETL by a wide margin (paper: up to 12x); query time is \
         mixed — the small q1 join loses to offload overhead, the large q4 join wins \
         (paper: 34% faster)."
    );

    // The tables above are the diagnostic; a device that answers
    // differently from the CPU is a wrong answer, so the harness (and
    // `run_all` over it) must not exit 0.
    if !etl_disagree.is_empty() {
        eprintln!("fig8_devices: ETL activations differ on {etl_disagree:?}");
    }
    if !disagree.is_empty() {
        eprintln!("fig8_devices: q1/q4 pairs differ from the CPU's on {disagree:?}");
    }
    if !etl_disagree.is_empty() || !disagree.is_empty() {
        std::process::exit(1);
    }
}

/// The devices whose activations over `planes` are wrong: further than
/// 1e-3 from the CPU's anywhere, or (for the GPU) not bit-identical to
/// AVX's — both run the same vectorized kernel per plane.
fn etl_disagreement(planes: &[(Vec<f32>, usize, usize)], layers: usize) -> Vec<&'static str> {
    let [cpu, avx, gpu] = Backend::fig8().map(|b| b.conv_stack_batch(planes, layers));
    let near_cpu = |out: &[Vec<f32>]| {
        out.len() == cpu.len()
            && out.iter().zip(&cpu).all(|(p, c)| {
                p.len() == c.len() && p.iter().zip(c).all(|(x, y)| (x - y).abs() <= 1e-3)
            })
    };
    let bits = |out: &[Vec<f32>]| -> Vec<Vec<u32>> {
        out.iter()
            .map(|p| p.iter().map(|x| x.to_bits()).collect())
            .collect()
    };
    let mut wrong = Vec::new();
    if !near_cpu(&avx) {
        wrong.push("AVX");
    }
    if !near_cpu(&gpu) || bits(&gpu) != bits(&avx) {
        wrong.push("GPU");
    }
    wrong
}
