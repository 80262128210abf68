//! # langid — character n-gram language identification
//!
//! The paper uses Google's CLD3 to label the language of each cookiewall
//! website (§4.1, Table 1's "Language" column). CLD3 is a neural model over
//! character n-grams; this crate implements the same input representation
//! with a multinomial naive-Bayes classifier over character trigrams —
//! the classical, well-understood member of that family — trained on
//! embedded corpora for the eight languages the study encounters.
//!
//! ## The model and its hot path
//!
//! Training and [`detect`] share one streaming normalizer: a single pass
//! over the text that lowercases, turns every numeral into `#`, collapses
//! whitespace runs to one space, counts alphabetic characters, and hands
//! each trigram of the result to its caller through a 3-char window —
//! with an ASCII fast path ahead of the Unicode rules. A trigram is packed
//! into a `u64` (three 21-bit characters), and one interned index maps it
//! to a row of per-language log-probabilities; trigrams no language saw
//! share one `unseen` row. Scoring is thus one lookup per trigram for all
//! eight languages, and `detect` makes no heap allocation.
//!
//! **Bit-identity contract.** Each language's score is summed in trigram
//! order from `-0.0`, exactly as a per-language `Iterator::sum` would,
//! and best and runner-up are picked as a stable descending sort would
//! order them (ties go to the earlier language in [`Language::ALL`]).
//! `language`, `trigrams` and `margin` therefore match, bit for bit, the
//! per-language `HashMap<[char; 3], f64>` implementation this one
//! replaced; a differential property test keeps that implementation as
//! its oracle, so every report that prints a language stays unchanged.
//!
//! ## Example
//!
//! ```
//! use langid::{detect, Language};
//!
//! let text = "Mit unserem Abo lesen Sie alle Artikel ohne Werbung.";
//! assert_eq!(detect(text).unwrap().language, Language::German);
//!
//! let text = "Read all our articles without any advertising.";
//! assert_eq!(detect(text).unwrap().language, Language::English);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod corpus;

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

/// Languages the detector distinguishes — the ones appearing in the study's
/// website population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Language {
    /// German (`de`).
    German,
    /// English (`en`).
    English,
    /// Italian (`it`).
    Italian,
    /// Swedish (`sv`).
    Swedish,
    /// French (`fr`).
    French,
    /// Portuguese (`pt`).
    Portuguese,
    /// Spanish (`es`).
    Spanish,
    /// Dutch (`nl`).
    Dutch,
}

impl Language {
    /// All supported languages.
    pub const ALL: [Language; 8] = [
        Language::German,
        Language::English,
        Language::Italian,
        Language::Swedish,
        Language::French,
        Language::Portuguese,
        Language::Spanish,
        Language::Dutch,
    ];

    /// ISO 639-1 code.
    pub fn code(self) -> &'static str {
        match self {
            Language::German => "de",
            Language::English => "en",
            Language::Italian => "it",
            Language::Swedish => "sv",
            Language::French => "fr",
            Language::Portuguese => "pt",
            Language::Spanish => "es",
            Language::Dutch => "nl",
        }
    }

    /// Parse an ISO 639-1 code (case-insensitive).
    pub fn from_code(code: &str) -> Option<Language> {
        Language::ALL
            .into_iter()
            .find(|l| l.code().eq_ignore_ascii_case(code))
    }

    fn corpus(self) -> &'static str {
        match self {
            Language::German => corpus::DE,
            Language::English => corpus::EN,
            Language::Italian => corpus::IT,
            Language::Swedish => corpus::SV,
            Language::French => corpus::FR,
            Language::Portuguese => corpus::PT,
            Language::Spanish => corpus::ES,
            Language::Dutch => corpus::NL,
        }
    }
}

/// A detection result: best language plus a reliability signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// The most probable language.
    pub language: Language,
    /// Mean per-trigram log-probability margin over the runner-up.
    /// Larger is more confident; values under ~0.02 are near-ties.
    pub margin: f64,
    /// Number of trigrams scored (short inputs are unreliable).
    pub trigrams: usize,
}

impl Detection {
    /// Is this detection trustworthy? (Heuristic mirroring CLD3's
    /// `is_reliable`: enough evidence and a clear margin.)
    pub fn is_reliable(&self) -> bool {
        self.trigrams >= 8 && self.margin > 0.02
    }
}

/// Minimum alphabetic characters before detection is attempted.
pub const MIN_INPUT_CHARS: usize = 8;

/// Number of languages, the width of one model row.
const LANGS: usize = Language::ALL.len();

/// Bits per character in a packed trigram: every `char` fits in 21.
const CHAR_BITS: u32 = 21;

/// Mask keeping the last three characters of the rolling window.
const KEY_MASK: u64 = (1 << (3 * CHAR_BITS)) - 1;

/// Hasher for packed trigram keys: one folded 64×64→128-bit multiply.
/// Only the embedded corpora insert keys; page text merely looks them up
/// and cannot lengthen a probe chain, so SipHash's flooding resistance
/// buys nothing here.
#[derive(Default)]
struct TrigramHasher(u64);

impl Hasher for TrigramHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let product = u128::from(self.0 ^ key) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }
}

/// Packed trigram → row of `Model::rows`.
type TrigramIndex = HashMap<u64, u32, BuildHasherDefault<TrigramHasher>>;

struct Model {
    index: TrigramIndex,
    /// Per-language log-probabilities of each trigram seen in training,
    /// in `Language::ALL` order; a language that never saw the trigram
    /// holds its unseen-trigram value.
    rows: Vec<[f64; LANGS]>,
    /// Per-language unseen-trigram (smoothing) log-probabilities, the row
    /// of every trigram the index does not know.
    unseen: [f64; LANGS],
}

impl Model {
    fn row(&self, key: u64) -> &[f64; LANGS] {
        match self.index.get(&key) {
            Some(&row) => &self.rows[row as usize],
            None => &self.unseen,
        }
    }
}

/// Is `c` whitespace for `char::is_whitespace`? Only the ASCII subset:
/// unlike `u8::is_ascii_whitespace`, it includes U+000B (vertical tab).
fn is_ascii_space(c: char) -> bool {
    matches!(c, '\t'..='\r' | ' ')
}

/// Normalize `text` in one streaming pass — lowercase, every numeral
/// becomes `#` (prices should not sway the decision), whitespace runs
/// become a single space, leading whitespace is dropped — and call `emit`
/// with each trigram of the normalized text, packed three 21-bit
/// characters to a `u64`, in order. Returns the number of alphabetic
/// characters in `text`.
fn for_each_trigram(text: &str, mut emit: impl FnMut(u64)) -> usize {
    let mut window = 0u64;
    let mut filled = 0u8;
    let mut push = |c: char| {
        window = (window << CHAR_BITS | u64::from(c)) & KEY_MASK;
        if filled < 2 {
            filled += 1;
        } else {
            emit(window);
        }
    };
    let mut alphabetic = 0;
    let mut last_space = true;
    for c in text.chars() {
        let (letter, numeral, space) = if c.is_ascii() {
            (
                c.is_ascii_alphabetic(),
                c.is_ascii_digit(),
                is_ascii_space(c),
            )
        } else {
            (c.is_alphabetic(), c.is_numeric(), c.is_whitespace())
        };
        alphabetic += usize::from(letter);
        if space {
            if !last_space {
                push(' ');
                last_space = true;
            }
            continue;
        }
        if numeral {
            push('#');
        } else if c.is_ascii() {
            push(c.to_ascii_lowercase());
        } else {
            c.to_lowercase().for_each(&mut push);
        }
        last_space = false;
    }
    alphabetic
}

fn build_model() -> Model {
    let mut index = TrigramIndex::default();
    let mut counts: Vec<[u32; LANGS]> = Vec::new();
    let mut totals = [0.0; LANGS];
    for (l, lang) in Language::ALL.into_iter().enumerate() {
        let (mut grams, mut vocab) = (0usize, 0usize);
        for_each_trigram(lang.corpus(), |key| {
            let next = counts.len() as u32;
            let row = *index.entry(key).or_insert(next);
            if row == next {
                counts.push([0; LANGS]);
            }
            let count = &mut counts[row as usize][l];
            vocab += usize::from(*count == 0);
            *count += 1;
            grams += 1;
        });
        // Add-one (Laplace) smoothing over the observed vocabulary.
        totals[l] = grams as f64 + vocab as f64 + 1.0;
    }
    let unseen = totals.map(|total| (1.0 / total).ln());
    let rows = counts
        .iter()
        .map(|count| {
            std::array::from_fn(|l| match count[l] {
                0 => unseen[l],
                c => ((f64::from(c) + 1.0) / totals[l]).ln(),
            })
        })
        .collect();
    Model {
        index,
        rows,
        unseen,
    }
}

fn model() -> &'static Model {
    static MODEL: OnceLock<Model> = OnceLock::new();
    MODEL.get_or_init(build_model)
}

/// The index of the best score and the runner-up's score, as the first
/// two entries of a stable descending sort: ties go to the earlier
/// language in `Language::ALL`.
fn rank(scores: &[f64; LANGS]) -> (usize, f64) {
    let mut best = 0;
    for l in 1..LANGS {
        if scores[l] > scores[best] {
            best = l;
        }
    }
    let runner_up = (0..LANGS)
        .filter(|&l| l != best)
        .map(|l| scores[l])
        .fold(f64::NEG_INFINITY, f64::max);
    (best, runner_up)
}

/// Detect the language of `text`.
///
/// Returns `None` for inputs that are too short or contain no letters —
/// the cases where any answer would be noise. Makes no heap allocation
/// (after the model's one-time build).
pub fn detect(text: &str) -> Option<Detection> {
    let m = model();
    // `f64: Sum` folds from -0.0; each language adds its terms in
    // trigram order, so the totals match a per-language `.sum()` bit
    // for bit.
    let mut scores = [-0.0f64; LANGS];
    let mut trigrams = 0usize;
    let alphabetic = for_each_trigram(text, |key| {
        for (score, p) in scores.iter_mut().zip(m.row(key)) {
            *score += p;
        }
        trigrams += 1;
    });
    if alphabetic < MIN_INPUT_CHARS || trigrams == 0 {
        return None;
    }
    let (best, runner_up) = rank(&scores);
    Some(Detection {
        language: Language::ALL[best],
        margin: (scores[best] - runner_up) / trigrams as f64,
        trigrams,
    })
}

/// Detect and return just the ISO code, like CLD3's typical use.
pub fn detect_code(text: &str) -> Option<&'static str> {
    detect(text).map(|d| d.language.code())
}

/// The implementation the interned index replaced — eight SipHash tables
/// keyed by `[char; 3]` and an allocating normalizer — kept verbatim as the
/// oracle of the differential tests: `detect` must agree with it bit for
/// bit.
#[cfg(test)]
mod reference {
    use super::{Detection, Language, MIN_INPUT_CHARS};
    use std::collections::HashMap;
    use std::sync::OnceLock;

    struct Model {
        /// Per-language trigram log-probabilities plus the unseen-trigram
        /// (smoothing) log-probability.
        tables: Vec<(Language, HashMap<[char; 3], f64>, f64)>,
    }

    pub(super) fn trigrams(text: &str) -> Vec<[char; 3]> {
        // Normalize: lowercase, collapse digits (prices should not sway the
        // decision), map whitespace runs to a single space boundary.
        let mut chars: Vec<char> = Vec::with_capacity(text.len());
        let mut last_space = true;
        for c in text.chars() {
            let c = if c.is_numeric() { '#' } else { c };
            if c.is_whitespace() {
                if !last_space {
                    chars.push(' ');
                    last_space = true;
                }
            } else {
                for lc in c.to_lowercase() {
                    chars.push(lc);
                }
                last_space = false;
            }
        }
        if chars.len() < 3 {
            return Vec::new();
        }
        chars.windows(3).map(|w| [w[0], w[1], w[2]]).collect()
    }

    fn build_model() -> Model {
        let mut tables = Vec::new();
        for lang in Language::ALL {
            let grams = trigrams(lang.corpus());
            let mut counts: HashMap<[char; 3], f64> = HashMap::new();
            for g in &grams {
                *counts.entry(*g).or_insert(0.0) += 1.0;
            }
            // Add-one (Laplace) smoothing over the observed vocabulary.
            let vocab = counts.len() as f64;
            let total = grams.len() as f64 + vocab + 1.0;
            let table: HashMap<[char; 3], f64> = counts
                .into_iter()
                .map(|(g, c)| (g, ((c + 1.0) / total).ln()))
                .collect();
            let unseen = (1.0 / total).ln();
            tables.push((lang, table, unseen));
        }
        Model { tables }
    }

    fn model() -> &'static Model {
        static MODEL: OnceLock<Model> = OnceLock::new();
        MODEL.get_or_init(build_model)
    }

    /// Detect the language of `text`.
    ///
    /// Returns `None` for inputs that are too short or contain no letters —
    /// the cases where any answer would be noise.
    pub(super) fn detect(text: &str) -> Option<Detection> {
        if text.chars().filter(|c| c.is_alphabetic()).count() < MIN_INPUT_CHARS {
            return None;
        }
        let grams = trigrams(text);
        if grams.is_empty() {
            return None;
        }
        let m = model();
        let mut scores: Vec<(Language, f64)> = m
            .tables
            .iter()
            .map(|(lang, table, unseen)| {
                let score: f64 = grams
                    .iter()
                    .map(|g| table.get(g).copied().unwrap_or(*unseen))
                    .sum();
                (*lang, score)
            })
            .collect();
        scores.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let (best, best_score) = scores[0];
        let runner_up = scores[1].1;
        Some(Detection {
            language: best,
            margin: (best_score - runner_up) / grams.len() as f64,
            trigrams: grams.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const SAMPLES: &[(Language, &str)] = &[
        (
            Language::German,
            "Bitte stimmen Sie der Nutzung von Cookies zu oder lesen Sie unsere Inhalte werbefrei mit einem günstigen Abonnement.",
        ),
        (
            Language::English,
            "Please agree to the use of cookies or read our content ad-free with an affordable monthly plan.",
        ),
        (
            Language::Italian,
            "Acconsenti all'uso dei cookie oppure leggi i nostri contenuti senza pubblicità con un abbonamento conveniente.",
        ),
        (
            Language::Swedish,
            "Godkänn användningen av kakor eller läs vårt innehåll reklamfritt med en billig prenumeration varje månad.",
        ),
        (
            Language::French,
            "Acceptez l'utilisation des cookies ou lisez nos contenus sans publicité grâce à un abonnement avantageux.",
        ),
        (
            Language::Portuguese,
            "Aceite a utilização de cookies ou leia os nossos conteúdos sem publicidade com uma assinatura acessível.",
        ),
        (
            Language::Spanish,
            "Acepte el uso de cookies o lea nuestros contenidos sin publicidad con una suscripción asequible cada mes.",
        ),
        (
            Language::Dutch,
            "Accepteer het gebruik van cookies of lees onze inhoud reclamevrij met een voordelig maandabonnement.",
        ),
    ];

    #[test]
    fn classifies_out_of_sample_consent_text() {
        for (expected, text) in SAMPLES {
            let d = detect(text).expect("long enough");
            assert_eq!(
                d.language, *expected,
                "misclassified {:?} as {:?} (margin {})",
                expected, d.language, d.margin
            );
            assert!(d.is_reliable(), "{expected:?} should be reliable");
        }
    }

    #[test]
    fn classifies_news_prose() {
        let de = "Der Ausschuss berät am Donnerstag über den Haushalt der Stadt und die geplanten Investitionen in Schulen.";
        assert_eq!(detect(de).unwrap().language, Language::German);
        let en = "The committee will meet on Thursday to discuss the city budget and planned investment in schools.";
        assert_eq!(detect(en).unwrap().language, Language::English);
        let sv = "Utskottet sammanträder på torsdag för att diskutera stadens budget och planerade investeringar i skolor.";
        assert_eq!(detect(sv).unwrap().language, Language::Swedish);
    }

    #[test]
    fn rejects_short_or_empty() {
        assert!(detect("").is_none());
        assert!(detect("ok").is_none());
        assert!(detect("3,99 € 4,99 € 12 100 7").is_none(), "digits only");
        assert!(detect("......").is_none());
    }

    #[test]
    fn digits_do_not_dominate() {
        let d = detect(
            "Nur 2,99 € im Monat statt 9,99 € — jetzt Abo abschließen und weiterlesen 2024 2025.",
        )
        .unwrap();
        assert_eq!(d.language, Language::German);
    }

    #[test]
    fn code_roundtrip() {
        for lang in Language::ALL {
            assert_eq!(Language::from_code(lang.code()), Some(lang));
        }
        assert_eq!(Language::from_code("xx"), None);
        assert_eq!(Language::from_code("DE"), Some(Language::German));
    }

    #[test]
    fn detect_code_api() {
        assert_eq!(
            detect_code("We would like to welcome all readers to our coverage of the election."),
            Some("en")
        );
    }

    #[test]
    fn mixed_language_picks_dominant() {
        let text = "Cookie settings. Wir verwenden Cookies, um Inhalte zu personalisieren und die Zugriffe auf unsere Website zu analysieren. Außerdem geben wir Informationen weiter.";
        assert_eq!(detect(text).unwrap().language, Language::German);
    }

    /// The trigrams `for_each_trigram` emits for `text`, unpacked.
    fn normalized(text: &str) -> Vec<[char; 3]> {
        let mut out = Vec::new();
        for_each_trigram(text, |key| {
            out.push([2, 1, 0].map(|i| {
                let bits = (key >> (i * CHAR_BITS)) & ((1 << CHAR_BITS) - 1);
                char::from_u32(bits as u32).expect("packed a valid char")
            }))
        });
        out
    }

    fn grams(text: &str) -> Vec<[char; 3]> {
        let chars: Vec<char> = text.chars().collect();
        chars.windows(3).map(|w| [w[0], w[1], w[2]]).collect()
    }

    /// Everything a caller can observe of a detection, margin as bits.
    fn fingerprint(d: Option<Detection>) -> Option<(Language, usize, u64)> {
        d.map(|d| (d.language, d.trigrams, d.margin.to_bits()))
    }

    fn assert_matches_reference(text: &str) {
        assert_eq!(normalized(text), reference::trigrams(text), "{text:?}");
        assert_eq!(
            fingerprint(detect(text)),
            fingerprint(reference::detect(text)),
            "{text:?}"
        );
    }

    fn corpora() -> impl Iterator<Item = &'static str> {
        Language::ALL.into_iter().map(Language::corpus)
    }

    #[test]
    fn whitespace_runs_collapse_including_vt_ff_cr() {
        assert_eq!(normalized("\x0B a\t\x0B\x0C\r\n b\x0C\r"), grams("a b "));
        assert_eq!(normalized("x\u{a0}\x0By"), grams("x y"));
        // U+001C..U+001F are not whitespace for `char::is_whitespace`.
        assert_eq!(normalized("x\x1Cy"), grams("x\x1Cy"));
        assert_matches_reference("Abo\x0B\x0C\r\n  jetzt\x0Babschließen\r");
    }

    #[test]
    fn numerals_become_hash_including_non_ascii() {
        assert_eq!(normalized("a٣½Ⅻ9b"), grams("a####b"));
        assert_matches_reference("Preis ٣,٩٩ € oder 3,99 € im Monat");
    }

    #[test]
    fn dotted_capital_i_lowercases_to_two_chars() {
        assert_eq!(normalized("İst"), grams("i\u{307}st"));
        assert_eq!(normalized("ẞA"), grams("ßa"));
        assert_matches_reference("İstanbul İzmir İnternet İçerik");
    }

    #[test]
    fn minimum_letter_count_is_exact() {
        let letters = "abcdefgh";
        assert_eq!(letters.len(), MIN_INPUT_CHARS);
        assert!(detect(letters).is_some());
        assert!(detect(&letters[1..]).is_none());
        // Letters are counted before normalization: seven `İ` are seven
        // letters though they normalize to fourteen chars.
        assert!(detect("İİİİİİİ").is_none());
        assert!(detect("İİİİİİİİ").is_some());
        // Digits are not letters, however many trigrams they make.
        assert!(detect("abc 1234567890 defg").is_none());
        for text in [letters, &letters[1..], "İİİİİİİ", "İİİİİİİİ"] {
            assert_matches_reference(text);
        }
    }

    #[test]
    fn letters_without_three_normalized_chars_yield_nothing() {
        let mut calls = 0;
        assert_eq!(for_each_trigram("ab", |_| calls += 1), 2);
        assert_eq!(for_each_trigram(" \t\x0Ba\r\n", |_| calls += 1), 1);
        assert_eq!(calls, 0);
        assert!(detect("ab").is_none());
        assert_matches_reference("ab");
    }

    #[test]
    fn corpora_and_samples_match_reference() {
        for text in corpora().chain(SAMPLES.iter().map(|(_, t)| *t)) {
            assert_matches_reference(text);
        }
    }

    /// Text from pools that reach every branch of the normalizer: ASCII
    /// letters and digits, all six ASCII whitespace characters and NBSP,
    /// the corpora's non-ASCII letters, chars whose lowercase or numeral
    /// handling is special, and whole corpus words for realistic scores.
    fn mixed_text() -> impl Strategy<Value = String> {
        let ascii: Vec<String> = ('a'..='z')
            .chain('A'..='Z')
            .chain('0'..='9')
            .map(String::from)
            .collect();
        let spaces: Vec<String> = ["\t", "\n", "\x0B", "\x0C", "\r", " ", "\u{a0}"]
            .map(String::from)
            .to_vec();
        let mut accented: Vec<char> = corpora()
            .flat_map(str::chars)
            .filter(|c| !c.is_ascii() && c.is_alphabetic())
            .collect();
        accented.sort_unstable();
        accented.dedup();
        let accented: Vec<String> = accented.into_iter().map(String::from).collect();
        let special: Vec<String> = ["İ", "ẞ", "٣", "😀"].map(String::from).to_vec();
        let words: Vec<String> = corpora()
            .flat_map(str::split_whitespace)
            .map(String::from)
            .collect();
        let piece = Union::new_weighted(vec![
            (6, prop::sample::select(ascii).boxed()),
            (4, prop::sample::select(spaces).boxed()),
            (2, prop::sample::select(accented).boxed()),
            (1, prop::sample::select(special).boxed()),
            (4, prop::sample::select(words).boxed()),
        ]);
        prop::collection::vec(piece, 0..80).prop_map(|pieces| pieces.concat())
    }

    proptest! {
        #[test]
        fn rank_matches_stable_descending_sort(
            picks in prop::collection::vec(0usize..3, LANGS)
        ) {
            // Three distinct values over eight slots force ties.
            let scores: [f64; LANGS] =
                std::array::from_fn(|l| [-1.5, -2.25, -3.0][picks[l]]);
            let mut sorted: Vec<(usize, f64)> = scores.into_iter().enumerate().collect();
            sorted.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            let (best, runner_up) = rank(&scores);
            prop_assert_eq!(best, sorted[0].0);
            prop_assert_eq!(runner_up.to_bits(), sorted[1].1.to_bits());
        }

        #[test]
        fn detect_is_bit_identical_to_reference(text in mixed_text()) {
            prop_assert_eq!(normalized(&text), reference::trigrams(&text));
            prop_assert_eq!(
                fingerprint(detect(&text)),
                fingerprint(reference::detect(&text))
            );
        }
    }
}
