//! `serve` — stand up a DeepLens query server on a TCP address.
//!
//! ```text
//! serve [--addr HOST:PORT] [--threads N]
//!       [--budget-us N] [--queue-depth N] [--demo]
//! ```
//!
//! `--demo` seeds three deterministic feature collections (`small`,
//! `large`, `other`) plus a Ball-Tree index `by_feat` on `large`, so a
//! fresh server answers queries immediately. The process serves until
//! killed.

use std::sync::Arc;

use deeplens_core::patch::{ImgRef, Patch};
use deeplens_core::shared::SharedCatalog;
use deeplens_serve::{serve, AdmissionConfig, ServerConfig};

/// Deterministic feature patches (the same LCG the core test corpora use).
fn feat_patches(catalog: &SharedCatalog, n: u64, dim: usize, seed: u64) -> Vec<Patch> {
    let mut ids = catalog.reserve_patch_ids(n);
    let mut s = seed;
    (0..n)
        .map(|i| {
            let f: Vec<f32> = (0..dim)
                .map(|_| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (s >> 33) as f32 / (1u64 << 31) as f32 * 10.0
                })
                .collect();
            Patch::features(ids.alloc(), ImgRef::frame("demo", i), f)
        })
        .collect()
}

fn usage() -> ! {
    eprintln!(
        "usage: serve [--addr HOST:PORT] [--threads N] \
         [--budget-us N] [--queue-depth N] [--demo]"
    );
    std::process::exit(2)
}

fn main() {
    let mut config = ServerConfig::default();
    let mut demo = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => config.addr = args.next().unwrap_or_else(|| usage()),
            "--threads" => {
                let v = args.next().and_then(|v| v.parse::<usize>().ok());
                config.threads = v.unwrap_or_else(|| usage());
            }
            "--budget-us" => {
                let v = args.next().and_then(|v| v.parse::<f64>().ok());
                config.admission.max_inflight_cost_us =
                    v.filter(|v| *v > 0.0).unwrap_or_else(|| usage());
            }
            "--queue-depth" => {
                let v = args.next().and_then(|v| v.parse::<usize>().ok());
                config.admission.max_queue_depth = v.unwrap_or_else(|| usage());
            }
            "--demo" => demo = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    let catalog = Arc::new(SharedCatalog::new());
    if demo {
        catalog.materialize("small", feat_patches(&catalog, 60, 6, 1));
        catalog.materialize("large", feat_patches(&catalog, 220, 6, 2));
        catalog.materialize("other", feat_patches(&catalog, 90, 6, 3));
        catalog
            .build_ball_index("large", "by_feat", 1)
            .expect("demo index");
        println!("serve: demo collections small/large/other seeded, index large.by_feat built");
    }

    let admission: AdmissionConfig = config.admission;
    let server = match serve(catalog, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "serve: listening on {} (budget {:.0}µs in flight, queue depth {})",
        server.local_addr(),
        admission.max_inflight_cost_us,
        admission.max_queue_depth,
    );
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
