use zenesis_adapt::AdaptPipeline;
use zenesis_data::{generate_slice, PhantomConfig, SampleKind};
use zenesis_ground::{
    learn_concept, DinoConfig, Exemplar, FinetuneConfig, GroundingDino, CHANNEL_NAMES,
};

fn main() {
    let g1 = generate_slice(&PhantomConfig::new(SampleKind::Amorphous, 1));
    let train = AdaptPipeline::recommended().run(&g1.raw.to_f32()).0;
    let c = learn_concept(
        "my_catalyst",
        &[Exemplar {
            image: &train,
            mask: &g1.truth,
        }],
        &FinetuneConfig::default(),
    )
    .unwrap();
    println!(
        "separation {:.3} n_pos {} n_neg {}",
        c.separation, c.n_pos, c.n_neg
    );
    for (n, v) in CHANNEL_NAMES.iter().zip(c.vector.iter()) {
        println!("  {n:<12} {v:+.3}");
    }
    let mut dino = GroundingDino::new(DinoConfig::default());
    dino.teach(&c);
    let g2 = generate_slice(&PhantomConfig::new(SampleKind::Amorphous, 2));
    let img2 = AdaptPipeline::recommended().run(&g2.raw.to_f32()).0;
    let gr = dino.ground(&img2, "my_catalyst");
    for d in gr.detections.iter().take(5) {
        println!("det {:?} s {:.2}", d.bbox, d.score);
    }
    for y in 0..16 {
        let row: String = (0..16)
            .map(|x| {
                let mut t = 0;
                for py in 0..8 {
                    for px in 0..8 {
                        if g2.truth.get(x * 8 + px, y * 8 + py) {
                            t += 1;
                        }
                    }
                }
                let v = gr.relevance.get(x, y);
                let c = if v > 0.7 {
                    '#'
                } else if v > 0.65 {
                    '+'
                } else if v > 0.5 {
                    '.'
                } else {
                    ' '
                };
                if t > 32 {
                    if c == '#' {
                        'O'
                    } else {
                        'o'
                    }
                } else {
                    c
                }
            })
            .collect();
        println!("{row}");
    }
}
