//! Generators for the paper's three benchmark corpora.
//!
//! The structure of each dataset matches §6.1 of the paper; the content is
//! synthetic (see the crate docs for the substitution argument). A scale
//! factor shrinks frame counts for laptop-sized runs while preserving
//! structure; `scale = 1.0` reproduces the paper's corpus sizes.

use deeplens_codec::Image;

use crate::font;
use crate::rng::SplitMix64;
use crate::scene::{ObjectClass, Scene, SceneObject};

/// Paper-scale frame counts.
pub mod paper_scale {
    /// PC dataset image count (§6.1).
    pub const PC_IMAGES: usize = 779;
    /// TrafficCam frame count: 24 min 30 s at 24 fps (§6.1).
    pub const TRAFFIC_FRAMES: u64 = 35_280;
    /// Football total image count across 15 clips (§6.1).
    pub const FOOTBALL_FRAMES: u64 = 15_244;
    /// Football clip count.
    pub const FOOTBALL_CLIPS: usize = 15;
}

/// The TrafficCam dataset: one continuous camera of a street scene.
#[derive(Debug, Clone)]
pub struct TrafficDataset {
    /// The world model (doubles as ground truth).
    pub scene: Scene,
    /// Number of frames in the feed.
    pub num_frames: u64,
}

impl TrafficDataset {
    /// Generate a traffic scene. `scale` shrinks the frame count
    /// (`1.0` = the paper's 35,280 frames); `seed` fixes the world.
    pub fn generate(scale: f64, seed: u64) -> Self {
        let num_frames = ((paper_scale::TRAFFIC_FRAMES as f64 * scale) as u64).max(60);
        let (w, h) = (192u32, 108u32);
        let mut scene = Scene::new(w, h, [58, 66, 60]);
        let mut rng = SplitMix64::seeded(seed);
        let mut next_id = 1u64;

        // Vehicles cross the road band every few dozen frames.
        let mut t = 0u64;
        while t < num_frames {
            let gap = rng.range(8, 40) as u64;
            t += gap;
            let truck = rng.chance(0.25);
            let (ow, oh) = if truck { (26, 14) } else { (18, 10) };
            let lane = rng.range(0, 3);
            let y = 40.0 + lane as f64 * 18.0;
            let leftward = rng.chance(0.5);
            let speed = rng.range_f64(1.2, 3.0);
            let (x0, vx) = if leftward {
                (w as f64 + 4.0, -speed)
            } else {
                (-(ow as f64) - 4.0, speed)
            };
            let travel = ((w as f64 + 2.0 * ow as f64) / speed).ceil() as u64 + 2;
            scene.objects.push(SceneObject {
                id: next_id,
                class: if truck {
                    ObjectClass::Truck
                } else {
                    ObjectClass::Car
                },
                x0,
                y0: y,
                w: ow,
                h: oh,
                vx,
                vy: 0.0,
                color: [
                    rng.range(90, 255) as u8,
                    rng.range(40, 200) as u8,
                    rng.range(40, 200) as u8,
                ],
                depth: rng.range_f64(8.0, 20.0),
                text: None,
                enter: t,
                exit: t + travel,
            });
            next_id += 1;
        }

        // Pedestrians walk the sidewalk band; distinct identities matter for
        // q4. Identities are numerous and short-lived (a busy sidewalk), so
        // same-identity clusters stay small relative to the corpus — the
        // regime where deduplication is genuinely challenging. Some
        // identities re-enter later (the dedup challenge).
        let n_peds = ((num_frames as f64 / 25.0).ceil() as u64).max(6);
        for p in 0..n_peds {
            let id = next_id;
            next_id += 1;
            let color = [
                rng.range(60, 220) as u8,
                rng.range(60, 220) as u8,
                rng.range(120, 255) as u8,
            ];
            let depth = rng.range_f64(4.0, 15.0);
            let appearances = if rng.chance(0.3) { 2 } else { 1 };
            for a in 0..appearances {
                let enter = rng.below(num_frames.max(2) - 1) / appearances
                    + a * num_frames / appearances.max(1);
                let speed = rng.range_f64(1.2, 2.5);
                let leftward = rng.chance(0.5);
                let (x0, vx) = if leftward {
                    (w as f64, -speed)
                } else {
                    (-6.0, speed)
                };
                let travel = ((w as f64 + 12.0) / speed).ceil() as u64;
                scene.objects.push(SceneObject {
                    id,
                    class: ObjectClass::Pedestrian,
                    x0,
                    y0: if p % 2 == 0 { 18.0 } else { 88.0 },
                    w: 6,
                    h: 14,
                    vx,
                    vy: 0.0,
                    color,
                    depth,
                    text: None,
                    enter,
                    exit: (enter + travel).min(num_frames + travel),
                });
            }
        }
        TrafficDataset { scene, num_frames }
    }

    /// Render every frame into memory.
    pub fn render_all(&self) -> Vec<Image> {
        (0..self.num_frames)
            .map(|t| self.scene.render_frame(t))
            .collect()
    }

    /// Ground truth for q2: frames containing at least one vehicle.
    pub fn frames_with_vehicle(&self) -> Vec<u64> {
        (0..self.num_frames)
            .filter(|&t| {
                self.scene
                    .visible_at(t)
                    .iter()
                    .any(|(o, _)| o.class.is_vehicle())
            })
            .collect()
    }

    /// Ground truth for q4: distinct pedestrian identities.
    pub fn distinct_pedestrians(&self) -> Vec<u64> {
        self.scene
            .distinct_identities(ObjectClass::Pedestrian, self.num_frames)
    }
}

/// One clip of the Football dataset.
#[derive(Debug, Clone)]
pub struct FootballClip {
    /// World model for this play.
    pub scene: Scene,
    /// Frames in the clip.
    pub num_frames: u64,
}

/// The Football dataset: 15 clips of the same team.
#[derive(Debug, Clone)]
pub struct FootballDataset {
    /// The clips.
    pub clips: Vec<FootballClip>,
    /// Jersey number of the player q3 tracks.
    pub target_jersey: String,
}

impl FootballDataset {
    /// Generate the 15 clips. `scale` shrinks frames per clip.
    pub fn generate(scale: f64, seed: u64) -> Self {
        let per_clip = ((paper_scale::FOOTBALL_FRAMES as f64 * scale
            / paper_scale::FOOTBALL_CLIPS as f64) as u64)
            .max(24);
        let mut rng = SplitMix64::seeded(seed);
        let target_jersey = "7".to_string();
        let mut clips = Vec::with_capacity(paper_scale::FOOTBALL_CLIPS);
        for clip_idx in 0..paper_scale::FOOTBALL_CLIPS {
            let (w, h) = (176u32, 99u32);
            let mut scene = Scene::new(w, h, [34, 120, 44]); // grass
            let n_players = rng.range(6, 10) as usize;
            for p in 0..n_players {
                let jersey = if p == 0 {
                    target_jersey.clone()
                } else {
                    format!("{}", rng.range(10, 99))
                };
                let team_red = p % 2 == 0;
                scene.objects.push(SceneObject {
                    id: (clip_idx * 100 + p) as u64 + 1,
                    class: ObjectClass::Player,
                    x0: rng.range_f64(4.0, w as f64 - 20.0),
                    y0: rng.range_f64(4.0, h as f64 - 24.0),
                    w: 10,
                    h: 18,
                    vx: rng.range_f64(-0.9, 0.9),
                    vy: rng.range_f64(-0.5, 0.5),
                    color: if team_red {
                        [180, 30, 30]
                    } else {
                        [230, 230, 240]
                    },
                    depth: rng.range_f64(10.0, 40.0),
                    text: Some(jersey),
                    enter: 0,
                    exit: per_clip,
                });
            }
            clips.push(FootballClip {
                scene,
                num_frames: per_clip,
            });
        }
        FootballDataset {
            clips,
            target_jersey,
        }
    }

    /// Total frames across all clips.
    pub fn total_frames(&self) -> u64 {
        self.clips.iter().map(|c| c.num_frames).sum()
    }
}

/// Category of a PC image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PcImageKind {
    /// A photograph-like gradient + shapes image.
    Photo,
    /// A screenshot: window chrome and text.
    Screenshot,
    /// A scanned document: white page with text lines.
    DocumentScan,
}

/// The PC dataset: a personal computer's image folder.
#[derive(Debug, Clone)]
pub struct PcDataset {
    /// The images.
    pub images: Vec<Image>,
    /// Kind of each image.
    pub kinds: Vec<PcImageKind>,
    /// Ground-truth near-duplicate pairs `(i, j)` with `i < j` (q1).
    pub duplicate_pairs: Vec<(u32, u32)>,
    /// Ground-truth text strings per image (empty for photos) (q5).
    pub texts: Vec<Vec<String>>,
    /// The needle string q5 searches for, planted in a few documents.
    pub needle: String,
}

/// A uniformly random color.
fn random_color(rng: &mut SplitMix64) -> [u8; 3] {
    [0; 3].map(|_| rng.next_u64() as u8)
}

/// Random uppercase word of 3–8 characters.
fn random_word(rng: &mut SplitMix64) -> String {
    let len = rng.range(3, 9);
    (0..len)
        .map(|_| (b'A' + rng.below(26) as u8) as char)
        .collect()
}

impl PcDataset {
    /// Generate the corpus. `scale` shrinks the image count
    /// (`1.0` = the paper's 779 images).
    pub fn generate(scale: f64, seed: u64) -> Self {
        let n_base = ((paper_scale::PC_IMAGES as f64 * scale) as usize).max(40);
        let mut rng = SplitMix64::seeded(seed);
        let needle = "DEEPLENS".to_string();
        let mut images = Vec::new();
        let mut kinds = Vec::new();
        let mut texts: Vec<Vec<String>> = Vec::new();
        let mut duplicate_pairs = Vec::new();

        let mut needle_planted = false;
        for _i in 0..n_base {
            let kind = match rng.below(10) {
                0..=4 => PcImageKind::Photo,
                5..=7 => PcImageKind::Screenshot,
                _ => PcImageKind::DocumentScan,
            };
            // Force at least one document late in the corpus to carry the
            // needle (documents are common enough that this triggers early).
            let plant = kind == PcImageKind::DocumentScan && !needle_planted;
            if plant {
                needle_planted = true;
            }
            let (img, strings) = Self::make_image(kind, &mut rng, plant, &needle);
            images.push(img);
            kinds.push(kind);
            texts.push(strings);
            // ~8% of images get a near-duplicate (slightly corrupted copy).
            if rng.chance(0.08) {
                let orig = images.len() - 1;
                let dup = Self::near_duplicate(&images[orig], &mut rng);
                duplicate_pairs.push((orig as u32, images.len() as u32));
                images.push(dup);
                kinds.push(kind);
                texts.push(texts[orig].clone());
            }
        }
        PcDataset {
            images,
            kinds,
            duplicate_pairs,
            texts,
            needle,
        }
    }

    fn make_image(
        kind: PcImageKind,
        rng: &mut SplitMix64,
        plant_needle: bool,
        needle: &str,
    ) -> (Image, Vec<String>) {
        let (w, h) = (96u32, 64u32);
        match kind {
            PcImageKind::Photo => {
                let top = random_color(rng);
                let bottom = random_color(rng);
                let mut img = Image::new(w, h);
                for y in 0..h {
                    let f = y as f32 / h as f32;
                    let c = [
                        (top[0] as f32 * (1.0 - f) + bottom[0] as f32 * f) as u8,
                        (top[1] as f32 * (1.0 - f) + bottom[1] as f32 * f) as u8,
                        (top[2] as f32 * (1.0 - f) + bottom[2] as f32 * f) as u8,
                    ];
                    for x in 0..w {
                        img.set(x, y, c);
                    }
                }
                for _ in 0..rng.range(2, 6) {
                    img.fill_rect(
                        rng.range(0, w as i64),
                        rng.range(0, h as i64),
                        rng.range(8, 30) as u32,
                        rng.range(8, 24) as u32,
                        random_color(rng),
                    );
                }
                (img, vec![])
            }
            PcImageKind::Screenshot => {
                let mut img = Image::solid(w, h, [40, 42, 52]);
                img.fill_rect(0, 0, w, 9, [70, 74, 90]); // title bar
                let title = random_word(rng);
                font::draw_text(&mut img, &title, 3, 2, 1, [220, 220, 230]);
                let mut strings = vec![title];
                let mut y = 14i64;
                while y < h as i64 - 8 {
                    let word = random_word(rng);
                    font::draw_text(&mut img, &word, 6, y, 1, [180, 200, 180]);
                    strings.push(word);
                    y += 9;
                }
                (img, strings)
            }
            PcImageKind::DocumentScan => {
                let mut img = Image::solid(w, h, [245, 243, 238]);
                let mut strings = Vec::new();
                let mut y = 4i64;
                let mut planted = plant_needle;
                while y < h as i64 - 8 {
                    let word = if planted {
                        planted = false;
                        needle.to_string()
                    } else {
                        random_word(rng)
                    };
                    font::draw_text(&mut img, &word, 5, y, 1, [30, 30, 35]);
                    strings.push(word);
                    y += 8;
                }
                (img, strings)
            }
        }
    }

    /// A visually-near copy: small brightness shift plus sparse pixel noise.
    fn near_duplicate(img: &Image, rng: &mut SplitMix64) -> Image {
        let mut out = img.clone();
        let shift = rng.range(-6, 7) as i32;
        let data = out.data_mut();
        for px in data.iter_mut() {
            *px = (*px as i32 + shift).clamp(0, 255) as u8;
        }
        for _ in 0..40 {
            let i = rng.below(data.len() as u64) as usize;
            data[i] = data[i].wrapping_add(rng.below(24) as u8);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_structure() {
        let ds = TrafficDataset::generate(0.02, 42);
        assert!(ds.num_frames >= 60);
        assert!(!ds.scene.objects.is_empty());
        let vehicles = ds.frames_with_vehicle();
        assert!(!vehicles.is_empty(), "some frames must contain vehicles");
        assert!(
            vehicles.len() < ds.num_frames as usize,
            "not every frame should contain vehicles"
        );
        let peds = ds.distinct_pedestrians();
        assert!(
            peds.len() >= 3,
            "need several distinct pedestrians, got {}",
            peds.len()
        );
    }

    #[test]
    fn traffic_deterministic() {
        let a = TrafficDataset::generate(0.01, 7);
        let b = TrafficDataset::generate(0.01, 7);
        assert_eq!(a.num_frames, b.num_frames);
        assert_eq!(a.scene.render_frame(10), b.scene.render_frame(10));
    }

    #[test]
    fn football_has_target_in_every_clip() {
        let ds = FootballDataset::generate(0.02, 9);
        assert_eq!(ds.clips.len(), 15);
        for clip in &ds.clips {
            let has_target = clip
                .scene
                .objects
                .iter()
                .any(|o| o.text.as_deref() == Some(ds.target_jersey.as_str()));
            assert!(has_target, "target jersey must appear in every clip");
        }
        assert!(ds.total_frames() >= 15 * 24);
    }

    #[test]
    fn pc_dataset_structure() {
        let ds = PcDataset::generate(0.2, 11);
        assert!(ds.images.len() >= 40);
        assert_eq!(ds.images.len(), ds.texts.len());
        assert_eq!(ds.images.len(), ds.kinds.len());
        assert!(
            !ds.duplicate_pairs.is_empty(),
            "need planted near-duplicates"
        );
        for &(a, b) in &ds.duplicate_pairs {
            assert!(a < b);
            assert!((b as usize) < ds.images.len());
            // Near-duplicates are pixel-close.
            let p = deeplens_codec::psnr(&ds.images[a as usize], &ds.images[b as usize]);
            assert!(p > 25.0, "duplicate pair PSNR {p} too low");
        }
        // The needle appears in at least one document.
        let found = ds.texts.iter().any(|t| t.iter().any(|s| s == &ds.needle));
        assert!(found, "needle must be planted");
    }

    #[test]
    fn pc_images_differ_from_each_other() {
        let ds = PcDataset::generate(0.1, 13);
        // Two non-duplicate images should be visually distant.
        let dup_set: std::collections::HashSet<u32> = ds
            .duplicate_pairs
            .iter()
            .flat_map(|&(a, b)| [a, b])
            .collect();
        let free: Vec<usize> = (0..ds.images.len())
            .filter(|i| !dup_set.contains(&(*i as u32)))
            .take(2)
            .collect();
        let p = deeplens_codec::psnr(&ds.images[free[0]], &ds.images[free[1]]);
        assert!(p < 25.0, "independent images should differ, PSNR {p}");
    }
}
