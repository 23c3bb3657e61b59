//! The LLM architecture evolution dataset behind Fig. 1.
//!
//! A curated list of major model releases 2018–2023 with their branch of
//! the architecture evolutionary tree (encoder-only, encoder-decoder,
//! decoder-only). Counts per year reproduce the figure's message: encoder
//! models led 2018–2019; since 2021 the decoder-only (GPT) branch
//! dominates while encoder-decoder output stays flat.

/// Architecture branch of the evolutionary tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Branch {
    /// BERT-style.
    EncoderOnly,
    /// T5-style.
    EncoderDecoder,
    /// GPT-style.
    DecoderOnly,
}

impl Branch {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Branch::EncoderOnly => "encoder-only",
            Branch::EncoderDecoder => "encoder-decoder",
            Branch::DecoderOnly => "decoder-only",
        }
    }
}

/// One major model release.
#[derive(Clone, Debug)]
pub struct Release {
    /// Model name.
    pub name: &'static str,
    /// Release year.
    pub year: u16,
    /// Branch.
    pub branch: Branch,
}

/// Major releases, following the evolutionary-tree survey the paper cites.
pub const RELEASES: &[Release] = &[
    Release {
        name: "GPT-1",
        year: 2018,
        branch: Branch::DecoderOnly,
    },
    Release {
        name: "BERT",
        year: 2018,
        branch: Branch::EncoderOnly,
    },
    Release {
        name: "GPT-2",
        year: 2019,
        branch: Branch::DecoderOnly,
    },
    Release {
        name: "RoBERTa",
        year: 2019,
        branch: Branch::EncoderOnly,
    },
    Release {
        name: "ALBERT",
        year: 2019,
        branch: Branch::EncoderOnly,
    },
    Release {
        name: "XLNet",
        year: 2019,
        branch: Branch::EncoderOnly,
    },
    Release {
        name: "DistilBERT",
        year: 2019,
        branch: Branch::EncoderOnly,
    },
    Release {
        name: "T5",
        year: 2019,
        branch: Branch::EncoderDecoder,
    },
    Release {
        name: "BART",
        year: 2019,
        branch: Branch::EncoderDecoder,
    },
    Release {
        name: "ELECTRA",
        year: 2020,
        branch: Branch::EncoderOnly,
    },
    Release {
        name: "DeBERTa",
        year: 2020,
        branch: Branch::EncoderOnly,
    },
    Release {
        name: "GPT-3",
        year: 2020,
        branch: Branch::DecoderOnly,
    },
    Release {
        name: "mT5",
        year: 2020,
        branch: Branch::EncoderDecoder,
    },
    Release {
        name: "Switch",
        year: 2021,
        branch: Branch::EncoderDecoder,
    },
    Release {
        name: "GPT-J",
        year: 2021,
        branch: Branch::DecoderOnly,
    },
    Release {
        name: "Jurassic-1",
        year: 2021,
        branch: Branch::DecoderOnly,
    },
    Release {
        name: "Gopher",
        year: 2021,
        branch: Branch::DecoderOnly,
    },
    Release {
        name: "ERNIE 3.0",
        year: 2021,
        branch: Branch::DecoderOnly,
    },
    Release {
        name: "Codex",
        year: 2021,
        branch: Branch::DecoderOnly,
    },
    Release {
        name: "GPT-NeoX",
        year: 2022,
        branch: Branch::DecoderOnly,
    },
    Release {
        name: "PaLM",
        year: 2022,
        branch: Branch::DecoderOnly,
    },
    Release {
        name: "OPT",
        year: 2022,
        branch: Branch::DecoderOnly,
    },
    Release {
        name: "BLOOM",
        year: 2022,
        branch: Branch::DecoderOnly,
    },
    Release {
        name: "Chinchilla",
        year: 2022,
        branch: Branch::DecoderOnly,
    },
    Release {
        name: "GLM-130B",
        year: 2022,
        branch: Branch::DecoderOnly,
    },
    Release {
        name: "UL2",
        year: 2022,
        branch: Branch::EncoderDecoder,
    },
    Release {
        name: "Flan-T5",
        year: 2022,
        branch: Branch::EncoderDecoder,
    },
    Release {
        name: "LLaMA",
        year: 2023,
        branch: Branch::DecoderOnly,
    },
    Release {
        name: "GPT-4",
        year: 2023,
        branch: Branch::DecoderOnly,
    },
    Release {
        name: "LLaMA 2",
        year: 2023,
        branch: Branch::DecoderOnly,
    },
    Release {
        name: "Falcon",
        year: 2023,
        branch: Branch::DecoderOnly,
    },
    Release {
        name: "MPT",
        year: 2023,
        branch: Branch::DecoderOnly,
    },
    Release {
        name: "PaLM 2",
        year: 2023,
        branch: Branch::DecoderOnly,
    },
    Release {
        name: "Claude",
        year: 2023,
        branch: Branch::DecoderOnly,
    },
];

/// Count releases per (year, branch) — the Fig. 1 series.
pub fn counts_by_year() -> Vec<(u16, [usize; 3])> {
    let mut out: Vec<(u16, [usize; 3])> = (2018..=2023).map(|y| (y, [0; 3])).collect();
    for r in RELEASES {
        let idx = match r.branch {
            Branch::EncoderOnly => 0,
            Branch::EncoderDecoder => 1,
            Branch::DecoderOnly => 2,
        };
        if let Some(row) = out.iter_mut().find(|(y, _)| *y == r.year) {
            row.1[idx] += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoder_models_led_2018_2019() {
        let counts = counts_by_year();
        let y2019 = counts.iter().find(|(y, _)| *y == 2019).unwrap().1;
        assert!(
            y2019[0] > y2019[2],
            "2019: encoder {} vs decoder {}",
            y2019[0],
            y2019[2]
        );
    }

    #[test]
    fn decoder_only_dominates_since_2021() {
        for year in 2021..=2023 {
            let counts = counts_by_year();
            let row = counts.iter().find(|(y, _)| *y == year).unwrap().1;
            assert!(
                row[2] > row[0] && row[2] > row[1],
                "{year}: {row:?} — decoder-only must dominate"
            );
        }
    }

    #[test]
    fn encoder_decoder_stays_flat() {
        let counts = counts_by_year();
        let series: Vec<usize> = counts.iter().map(|(_, r)| r[1]).collect();
        let max = *series.iter().max().unwrap();
        assert!(max <= 3, "encoder-decoder never spikes: {series:?}");
    }

    #[test]
    fn all_years_covered() {
        let counts = counts_by_year();
        assert_eq!(counts.len(), 6);
        assert!(counts.iter().all(|(_, r)| r.iter().sum::<usize>() > 0));
    }
}
