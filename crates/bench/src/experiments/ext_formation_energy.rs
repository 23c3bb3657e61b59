//! Extension: the paper notes band gap "is more challenging to predict
//! ... than other properties such as formation energy". We run the same
//! GNN on both targets in the synthetic universe and compare the MAEs
//! (alongside each target's intrinsic spread for context).

use super::Ctx;
use crate::{compare, print_table};
use matgpt_corpus::MaterialGenerator;
use matgpt_gnn::{train_and_eval, GnnDataset, GnnTrainConfig, GnnVariant, PropertyTarget};

pub fn run(_ctx: &Ctx) -> Result<(), String> {
    let mats = MaterialGenerator::new(61).generate(300);
    let cfg = GnnTrainConfig {
        epochs: 30,
        ..GnnTrainConfig::default()
    };
    let mut rows = Vec::new();
    let mut maes = Vec::new();
    for (name, target) in [
        ("band gap", PropertyTarget::BandGap),
        ("formation energy", PropertyTarget::FormationEnergy),
    ] {
        let ds = GnnDataset::for_target(&mats, GnnVariant::Alignn, 0.8, target);
        // intrinsic spread of the target on the test split
        let mean: f32 = ds.test.iter().map(|g| g.target).sum::<f32>() / ds.test.len() as f32;
        let mad: f64 = ds
            .test
            .iter()
            .map(|g| (g.target - mean).abs() as f64)
            .sum::<f64>()
            / ds.test.len() as f64;
        let r = train_and_eval(GnnVariant::Alignn, &ds, &cfg, name);
        rows.push(vec![
            name.to_string(),
            format!("{:.3}", r.test_mae),
            format!("{mad:.3}"),
            format!("{:.2}", r.test_mae / mad),
        ]);
        maes.push(r.test_mae);
    }
    print_table(
        "Extension: band gap vs formation energy (ALIGNN, same structures)",
        &["target", "test MAE", "target MAD", "relative error"],
        &rows,
    );
    println!("\n-- paper vs measured --");
    compare(
        "band gap is the harder regression target (MAE)",
        "\"more challenging ... than formation energy\"",
        &format!("{:.3} eV vs {:.3} eV/atom", maes[0], maes[1]),
        if maes[0] > maes[1] { "MATCH" } else { "CHECK" },
    );
    println!(
        "note: absolute MAEs are on different physical scales (eV vs eV/atom), as in\n\
         the literature the paper compares against; the spread column gives context."
    );
    Ok(())
}
