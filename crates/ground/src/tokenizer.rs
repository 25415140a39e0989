//! Prompt tokenization: lowercase, alphanumeric word split, stop-word
//! removal, and domain bigram merging.

/// Stop words dropped from prompts ("segment the bright particles" →
/// ["bright", "particles"]).
const STOP_WORDS: &[&str] = &[
    "a", "an", "the", "of", "in", "on", "and", "or", "to", "with", "all", "please", "segment",
    "find", "select", "show", "me", "region", "regions", "area", "areas",
];

/// Adjacent word pairs merged into single domain concepts.
const BIGRAMS: &[(&str, &str, &str)] = &[
    ("needle", "like", "needle"),
    ("catalyst", "particles", "catalyst_particles"),
    ("catalyst", "particle", "catalyst_particles"),
    ("catalyst", "layer", "catalyst_layer"),
    ("ionomer", "film", "ionomer"),
    ("black", "background", "background"),
    ("dark", "background", "background"),
];

/// Tokenize a natural-language prompt.
pub fn tokenize(prompt: &str) -> Vec<String> {
    let words: Vec<String> = prompt
        .to_lowercase()
        .split(|c: char| !c.is_alphanumeric())
        .filter(|w| !w.is_empty())
        .filter(|w| !STOP_WORDS.contains(w))
        .map(|w| w.to_string())
        .collect();
    // Merge bigrams greedily left-to-right.
    let mut out = Vec::with_capacity(words.len());
    let mut i = 0;
    while i < words.len() {
        if i + 1 < words.len() {
            if let Some(&(_, _, merged)) = BIGRAMS
                .iter()
                .find(|(a, b, _)| *a == words[i] && *b == words[i + 1])
            {
                out.push(merged.to_string());
                i += 2;
                continue;
            }
        }
        out.push(words[i].clone());
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_split_and_lowercase() {
        assert_eq!(tokenize("Bright Needles"), vec!["bright", "needles"]);
        assert_eq!(
            tokenize("catalyst,membrane;pore"),
            vec!["catalyst", "membrane", "pore"]
        );
    }

    #[test]
    fn stop_words_removed() {
        assert_eq!(
            tokenize("segment the bright particles in the image"),
            vec!["bright", "particles", "image"]
        );
    }

    #[test]
    fn bigram_merging() {
        assert_eq!(
            tokenize("needle-like crystalline catalyst"),
            vec!["needle", "crystalline", "catalyst"]
        );
        assert_eq!(tokenize("catalyst particles"), vec!["catalyst_particles"]);
        assert_eq!(tokenize("dark background"), vec!["background"]);
    }

    #[test]
    fn empty_and_stopword_only_prompts() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("segment the").is_empty());
        assert!(tokenize("...!!!").is_empty());
    }

    #[test]
    fn unknown_words_pass_through() {
        assert_eq!(tokenize("zeolite dendrites"), vec!["zeolite", "dendrites"]);
    }
}
