//! Extension study: how the flash-attention advantage grows with context
//! length. The paper measures memory vs sequence length (Fig. 5) and
//! throughput at seq 2048 (Fig. 4); here we join the two axes —
//! throughput *and* memory across 2K–32K — the trade-off a practitioner
//! planning long-context pre-training actually needs.

use super::Ctx;
use crate::print_table;
use matgpt_frontier_sim::{peak_memory_gib, FlashVersion, KernelModel, Partitioning};
use matgpt_model::{ArchKind, GptConfig};

pub fn run(_ctx: &Ctx) -> Result<(), String> {
    let km = KernelModel::default();
    let part = Partitioning::data_parallel(1);
    let base = GptConfig::paper_1_7b(ArchKind::NeoX, 52_000);

    let mut rows = Vec::new();
    let mut seq = 2048usize;
    while seq <= 32_768 {
        let cfg = GptConfig {
            max_seq: seq,
            ..base.clone()
        };
        let t_none = km.achieved_tflops(&cfg, 1, seq, FlashVersion::None);
        let t_v2 = km.achieved_tflops(&cfg, 1, seq, FlashVersion::V2);
        let m_none = peak_memory_gib(&cfg, 1, seq, FlashVersion::None, &part);
        let m_v2 = peak_memory_gib(&cfg, 1, seq, FlashVersion::V2, &part);
        let fmt_mem = |m: f64| {
            if m > 64.0 {
                format!("OOM ({m:.0})")
            } else {
                format!("{m:.0}")
            }
        };
        rows.push(vec![
            seq.to_string(),
            format!("{t_none:.1}"),
            format!("{t_v2:.1}"),
            format!("{:+.0}%", (t_v2 / t_none - 1.0) * 100.0),
            fmt_mem(m_none),
            fmt_mem(m_v2),
        ]);
        seq *= 2;
    }
    print_table(
        "Extension: flash advantage vs context length (1.7B, micro-batch 1)",
        &[
            "seq len",
            "TFLOPS no-flash",
            "TFLOPS flash v2",
            "speedup",
            "mem no-flash GiB",
            "mem flash GiB",
        ],
        &rows,
    );
    println!(
        "\nthe speedup grows with sequence length (the attention share of the layer\n\
         grows quadratically) while the no-flash column runs out of memory at 16K —\n\
         together these are the case for flash attention at long context."
    );
    Ok(())
}
