//! Synthetic multiple-choice QA benchmarks.
//!
//! Nine task families mirror the paper's nine evaluation sets (SciQ, PIQA,
//! OpenBookQA, ARC-Easy, ARC-Challenge, and the four Hendrycks college
//! tests). Questions are generated from the same materials universe the
//! corpus writes about, so a model pre-trained on the corpus can transfer;
//! the two "HT" surrogate families ask about facts the corpus randomises
//! (methods, applications), so they sit near chance for small models —
//! matching the paper's observation that the Hendrycks tests are hardest.

use matgpt_corpus::materials::Material;
use matgpt_corpus::ELEMENTS;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The nine benchmark families.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Science QA: band-gap class of a named material.
    SciQ,
    /// Physical common sense about gaps and conduction.
    Piqa,
    /// Open-book: numeric band-gap value of a named material.
    Obqa,
    /// Easy reasoning: element membership in a formula.
    ArcEasy,
    /// Challenge: compare the band gaps of two materials.
    ArcChallenge,
    /// College chemistry: electronegativity ordering.
    HtCollegeChemistry,
    /// College physics: lattice parameter recall.
    HtCollegePhysics,
    /// College "medicine" surrogate: application trivia (unlearnable).
    HtCollegeMedicine,
    /// College CS surrogate: method trivia (unlearnable).
    HtCollegeCs,
}

impl TaskKind {
    /// All nine, in the paper's plotting order.
    pub fn all() -> [TaskKind; 9] {
        [
            TaskKind::SciQ,
            TaskKind::Piqa,
            TaskKind::Obqa,
            TaskKind::ArcEasy,
            TaskKind::ArcChallenge,
            TaskKind::HtCollegeChemistry,
            TaskKind::HtCollegePhysics,
            TaskKind::HtCollegeMedicine,
            TaskKind::HtCollegeCs,
        ]
    }

    /// Short label as in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            TaskKind::SciQ => "SciQ",
            TaskKind::Piqa => "PIQA",
            TaskKind::Obqa => "OBQA",
            TaskKind::ArcEasy => "ARC-E",
            TaskKind::ArcChallenge => "ARC-C",
            TaskKind::HtCollegeChemistry => "HT-CC",
            TaskKind::HtCollegePhysics => "HT-CP",
            TaskKind::HtCollegeMedicine => "HT-CM",
            TaskKind::HtCollegeCs => "HT-CCS",
        }
    }
}

/// One multiple-choice item. The prompt ends where the continuation
/// begins; choices are scored as continuations.
#[derive(Clone, Debug)]
pub struct QaItem {
    /// The question / context text.
    pub prompt: String,
    /// Candidate continuations.
    pub choices: Vec<String>,
    /// Index of the correct choice.
    pub answer: usize,
}

impl QaItem {
    /// Render the item with its gold answer (for few-shot prefixes).
    pub fn solved(&self) -> String {
        format!("{}{} .", self.prompt, self.choices[self.answer])
    }
}

/// Generate `n` items of the given family over the material universe.
pub fn generate(kind: TaskKind, materials: &[Material], n: usize, seed: u64) -> Vec<QaItem> {
    assert!(materials.len() >= 4, "need a few materials");
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (kind as u64) << 32);
    (0..n)
        .map(|_| one_item(kind, materials, &mut rng))
        .collect()
}

fn pick<'a, R: Rng>(mats: &'a [Material], rng: &mut R) -> &'a Material {
    &mats[rng.gen_range(0..mats.len())]
}

fn one_item<R: Rng>(kind: TaskKind, mats: &[Material], rng: &mut R) -> QaItem {
    match kind {
        TaskKind::SciQ => {
            let m = pick(mats, rng);
            // phrased exactly like the corpus templates so the LM transfers
            let prompt = format!("Our results show that {} is a ", m.formula);
            let classes = ["conductor", "semiconductor", "insulator"];
            let answer = classes.iter().position(|c| *c == m.class.name()).unwrap();
            QaItem {
                prompt,
                choices: classes.iter().map(|s| s.to_string()).collect(),
                answer,
            }
        }
        TaskKind::Piqa => {
            // generic physical common sense, stated in corpus vocabulary
            let (prompt, good, bad) = match rng.gen_range(0..3) {
                0 => (
                    "A material with a wide band gap behaves as an ".to_string(),
                    "insulator",
                    "conductor",
                ),
                1 => (
                    "A material with a negligible band gap behaves as a ".to_string(),
                    "conductor",
                    "insulator",
                ),
                _ => (
                    "A material with a narrow band gap behaves as a ".to_string(),
                    "semiconductor",
                    "insulator",
                ),
            };
            let flip: bool = rng.gen();
            let (choices, answer) = if flip {
                (vec![bad.to_string(), good.to_string()], 1)
            } else {
                (vec![good.to_string(), bad.to_string()], 0)
            };
            QaItem {
                prompt,
                choices,
                answer,
            }
        }
        TaskKind::Obqa => {
            let m = pick(mats, rng);
            let prompt = format!(
                "Measurements reveal that {} has a band gap of approximately ",
                m.formula
            );
            let truth = format!("{:.1} eV", m.band_gap);
            let mut choices = vec![truth];
            while choices.len() < 4 {
                let decoy = (m.band_gap + rng.gen_range(1.0..5.0f32)) % 9.0;
                let s = format!("{decoy:.1} eV");
                if !choices.contains(&s) {
                    choices.push(s);
                }
            }
            shuffle_with_answer(choices, rng).with_prompt(prompt)
        }
        TaskKind::ArcEasy => {
            let m = pick(mats, rng);
            let (e, _) = m.composition[rng.gen_range(0..m.composition.len())];
            let truth = ELEMENTS[e].symbol.to_string();
            let mut choices = vec![truth];
            while choices.len() < 4 {
                let cand = ELEMENTS[rng.gen_range(0..ELEMENTS.len())]
                    .symbol
                    .to_string();
                if !m.formula.contains(&cand) && !choices.contains(&cand) {
                    choices.push(cand);
                }
            }
            let prompt = format!("The compound {} contains the element ", m.formula);
            shuffle_with_answer(choices, rng).with_prompt(prompt)
        }
        TaskKind::ArcChallenge => {
            let a = pick(mats, rng);
            let mut b = pick(mats, rng);
            let mut guard = 0;
            while (a.band_gap - b.band_gap).abs() < 0.5 && guard < 50 {
                b = pick(mats, rng);
                guard += 1;
            }
            let prompt = format!(
                "Between {} and {} , the material with the wider band gap is ",
                a.formula, b.formula
            );
            let answer = usize::from(b.band_gap > a.band_gap);
            QaItem {
                prompt,
                choices: vec![a.formula.clone(), b.formula.clone()],
                answer,
            }
        }
        TaskKind::HtCollegeChemistry => {
            let i = rng.gen_range(0..ELEMENTS.len());
            let mut j = rng.gen_range(0..ELEMENTS.len());
            let mut guard = 0;
            while (ELEMENTS[i].electronegativity - ELEMENTS[j].electronegativity).abs() < 0.4
                && guard < 50
            {
                j = rng.gen_range(0..ELEMENTS.len());
                guard += 1;
            }
            let prompt = format!(
                "Between {} and {} , the more electronegative element is ",
                ELEMENTS[i].symbol, ELEMENTS[j].symbol
            );
            let answer = usize::from(ELEMENTS[j].electronegativity > ELEMENTS[i].electronegativity);
            QaItem {
                prompt,
                choices: vec![ELEMENTS[i].symbol.into(), ELEMENTS[j].symbol.into()],
                answer,
            }
        }
        TaskKind::HtCollegePhysics => {
            let m = pick(mats, rng);
            let prompt = format!("The unit cell of {} has a lattice constant of ", m.formula);
            let truth = format!("{:.2} angstrom", m.lattice_a);
            let mut choices = vec![truth];
            while choices.len() < 4 {
                let decoy = 3.4 + rng.gen_range(0.0..3.4f32);
                let s = format!("{decoy:.2} angstrom");
                if !choices.contains(&s) {
                    choices.push(s);
                }
            }
            shuffle_with_answer(choices, rng).with_prompt(prompt)
        }
        TaskKind::HtCollegeMedicine => {
            // applications are randomised in the corpus: near-chance by design
            let m = pick(mats, rng);
            let apps = [
                "photovoltaic absorbers",
                "solid state batteries",
                "gas sensing devices",
                "radiation detectors",
            ];
            let answer = rng.gen_range(0..apps.len());
            QaItem {
                prompt: format!("The compound {} is most used for ", m.formula),
                choices: apps.iter().map(|s| s.to_string()).collect(),
                answer,
            }
        }
        TaskKind::HtCollegeCs => {
            let m = pick(mats, rng);
            let methods = [
                "density functional theory calculations",
                "molecular beam epitaxy",
                "sol gel processing",
                "chemical vapor deposition",
            ];
            let answer = rng.gen_range(0..methods.len());
            QaItem {
                prompt: format!("The compound {} was first studied using ", m.formula),
                choices: methods.iter().map(|s| s.to_string()).collect(),
                answer,
            }
        }
    }
}

trait WithPrompt {
    fn with_prompt(self, prompt: String) -> QaItem;
}

impl WithPrompt for QaItem {
    fn with_prompt(mut self, prompt: String) -> QaItem {
        self.prompt = prompt;
        self
    }
}

/// Shuffle choices (first entry is the truth) and track the answer index.
fn shuffle_with_answer<R: Rng>(mut choices: Vec<String>, rng: &mut R) -> QaItem {
    let truth = choices[0].clone();
    // Fisher–Yates
    for i in (1..choices.len()).rev() {
        let j = rng.gen_range(0..=i);
        choices.swap(i, j);
    }
    let answer = choices.iter().position(|c| *c == truth).unwrap();
    QaItem {
        prompt: String::new(),
        choices,
        answer,
    }
}

/// Chance accuracy of a task family (1 / #choices).
pub fn chance_accuracy(kind: TaskKind) -> f64 {
    match kind {
        TaskKind::Piqa | TaskKind::ArcChallenge | TaskKind::HtCollegeChemistry => 0.5,
        TaskKind::SciQ => 1.0 / 3.0,
        _ => 0.25,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matgpt_corpus::MaterialGenerator;

    fn mats() -> Vec<Material> {
        MaterialGenerator::new(5).generate(50)
    }

    #[test]
    fn all_families_generate_valid_items() {
        let mats = mats();
        for kind in TaskKind::all() {
            let items = generate(kind, &mats, 20, 1);
            assert_eq!(items.len(), 20);
            for item in &items {
                assert!(!item.prompt.is_empty(), "{kind:?} empty prompt");
                assert!(item.choices.len() >= 2, "{kind:?} choices");
                assert!(item.answer < item.choices.len(), "{kind:?} answer idx");
                let distinct: std::collections::HashSet<&String> = item.choices.iter().collect();
                assert_eq!(distinct.len(), item.choices.len(), "{kind:?} dup choice");
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let mats = mats();
        let a = generate(TaskKind::SciQ, &mats, 10, 7);
        let b = generate(TaskKind::SciQ, &mats, 10, 7);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.prompt, y.prompt);
            assert_eq!(x.answer, y.answer);
        }
    }

    #[test]
    fn sciq_answers_match_ground_truth() {
        let mats = mats();
        for item in generate(TaskKind::SciQ, &mats, 30, 2) {
            let formula = item
                .prompt
                .trim_start_matches("Our results show that ")
                .split(' ')
                .next()
                .unwrap();
            let m = mats.iter().find(|m| m.formula == formula).unwrap();
            assert_eq!(item.choices[item.answer], m.class.name());
        }
    }

    #[test]
    fn arc_challenge_answer_is_really_wider() {
        let mats = mats();
        for item in generate(TaskKind::ArcChallenge, &mats, 30, 3) {
            let gap_of = |f: &str| mats.iter().find(|m| m.formula == f).unwrap().band_gap;
            let chosen = gap_of(&item.choices[item.answer]);
            let other = gap_of(&item.choices[1 - item.answer]);
            assert!(chosen >= other, "{chosen} vs {other}");
        }
    }

    #[test]
    fn obqa_truth_is_present_once() {
        let mats = mats();
        for item in generate(TaskKind::Obqa, &mats, 20, 4) {
            assert_eq!(item.choices.len(), 4);
            assert!(item.choices[item.answer].ends_with("eV"));
        }
    }

    #[test]
    fn solved_rendering_contains_answer() {
        let mats = mats();
        let item = &generate(TaskKind::SciQ, &mats, 1, 5)[0];
        let s = item.solved();
        assert!(s.contains(&item.choices[item.answer]));
        assert!(s.starts_with(&item.prompt));
    }

    #[test]
    fn chance_levels() {
        assert_eq!(chance_accuracy(TaskKind::Piqa), 0.5);
        assert!((chance_accuracy(TaskKind::SciQ) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(chance_accuracy(TaskKind::Obqa), 0.25);
    }

    #[test]
    fn band_gap_class_balance_in_sciq() {
        // all three classes should appear as answers across many items
        let mats = MaterialGenerator::new(9).generate(200);
        let items = generate(TaskKind::SciQ, &mats, 100, 6);
        let mut seen = std::collections::HashSet::new();
        for i in &items {
            seen.insert(i.answer);
        }
        assert!(seen.len() >= 2, "answer positions {seen:?}");
    }
}
