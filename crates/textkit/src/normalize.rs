//! Normalization and entity masking for diagnostic text.
//!
//! Incident text is full of tokens that are unique per incident (machine
//! names, GUIDs, timestamps, pids, counters) and therefore pure noise for
//! similarity: two occurrences of the *same* root cause never share them.
//! [`mask_entities`] replaces them with stable placeholder tokens so that
//! embeddings and TF-IDF see the *shape* of the text, not its serial
//! numbers.

/// Lowercases and collapses whitespace without masking.
pub fn normalize(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut last_space = true;
    for ch in text.chars() {
        if ch.is_whitespace() {
            if !last_space {
                out.push(' ');
                last_space = true;
            }
        } else {
            // ASCII, nearly all diagnostic text, skips the case-mapping
            // iterator; it lowercases to the same single character.
            if ch.is_ascii() {
                out.push(ch.to_ascii_lowercase());
            } else {
                out.extend(ch.to_lowercase());
            }
            last_space = false;
        }
    }
    if out.ends_with(' ') {
        out.pop();
    }
    out
}

/// True if `tok` looks like a machine name, e.g. `NAMPR03MB1234`
/// (letters then digits then letters then digits, mostly uppercase).
fn looks_like_machine_name(tok: &str) -> bool {
    if tok.len() < 8 || !tok.chars().all(|c| c.is_ascii_alphanumeric()) {
        return false;
    }
    let uppercase = tok.chars().filter(|c| c.is_ascii_uppercase()).count();
    let digits = tok.chars().filter(|c| c.is_ascii_digit()).count();
    uppercase >= 4 && digits >= 3 && tok.chars().next().is_some_and(|c| c.is_ascii_uppercase())
}

/// True if `tok` is hex-ish (GUID fragment, trace id).
fn looks_like_hex_id(tok: &str) -> bool {
    tok.len() >= 8
        && tok.chars().all(|c| c.is_ascii_hexdigit() || c == '-')
        && tok.chars().any(|c| c.is_ascii_digit())
        && tok.chars().any(|c| c.is_ascii_alphabetic() || c == '-')
}

/// True if `tok` is a date or time fragment (`11/21/2022`, `2:04:20`,
/// `2022-11-21T02:04:20Z`).
fn looks_like_timestamp(tok: &str) -> bool {
    let has_sep = tok.contains('/') || tok.contains(':') || tok.contains('-');
    let digits = tok.chars().filter(|c| c.is_ascii_digit()).count();
    has_sep
        && digits >= 4
        && tok
            .chars()
            .all(|c| c.is_ascii_digit() || matches!(c, '/' | ':' | '-' | 'T' | 'Z' | '.'))
}

/// True if `tok` is a bare number of 3+ digits (pid, count, port).
fn looks_like_big_number(tok: &str) -> bool {
    tok.len() >= 3 && tok.chars().all(|c| c.is_ascii_digit())
}

/// Masks per-incident entities with placeholder tokens.
///
/// Splits on whitespace, maps each raw token through the masking rules,
/// and rejoins. Punctuation at token edges is preserved around the mask so
/// the sentence shape survives.
pub fn mask_entities(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for (i, ws_tok) in text.split_whitespace().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        // `key=value` log tokens: mask each side independently.
        for (j, raw) in ws_tok.split('=').enumerate() {
            if j > 0 {
                out.push('=');
            }
            mask_one(raw, &mut out);
        }
    }
    out
}

/// Masks a single `=`-free token into `out`.
fn mask_one(raw: &str, out: &mut String) {
    {
        let start = raw.find(|c: char| c.is_ascii_alphanumeric()).unwrap_or(0);
        let end = raw
            .rfind(|c: char| c.is_ascii_alphanumeric())
            .map(|e| e + 1)
            .unwrap_or(raw.len());
        if start >= end {
            out.push_str(raw);
            return;
        }
        let (prefix, rest) = raw.split_at(start);
        let (core, suffix) = rest.split_at(end - start);
        let masked = if looks_like_timestamp(core) {
            "<time>"
        } else if looks_like_machine_name(core) {
            "<machine>"
        } else if looks_like_hex_id(core) {
            "<hexid>"
        } else if looks_like_big_number(core) {
            "<num>"
        } else {
            core
        };
        out.push_str(prefix);
        out.push_str(masked);
        out.push_str(suffix);
    }
}

/// Splits normalized text into word tokens (alphanumeric runs, keeping
/// `<placeholders>`, dotted identifiers like `system.io.ioexception` are
/// split on dots so exception parts become tokens).
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    let mut chars = text.chars().peekable();
    while let Some(ch) = chars.next() {
        if ch == '<' {
            // Possible placeholder token.
            let mut ph = String::from("<");
            let mut ok = false;
            for c2 in chars.by_ref() {
                ph.push(c2);
                if c2 == '>' {
                    ok = true;
                    break;
                }
                if !c2.is_ascii_alphanumeric() {
                    break;
                }
            }
            if !cur.is_empty() {
                tokens.push(std::mem::take(&mut cur));
            }
            if ok {
                tokens.push(ph);
            }
            continue;
        }
        if ch.is_ascii_alphanumeric() || ch == '_' {
            cur.push(ch.to_ascii_lowercase());
        } else if !cur.is_empty() {
            tokens.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        tokens.push(cur);
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_lowercases_and_collapses() {
        assert_eq!(normalize("  Hello\n\tWORLD  "), "hello world");
        assert_eq!(normalize(""), "");
    }

    #[test]
    fn machine_names_are_masked() {
        let masked = mask_entities("probe from NAMPR03MB1234 failed");
        assert_eq!(masked, "probe from <machine> failed");
    }

    #[test]
    fn timestamps_are_masked() {
        let masked = mask_entities("at 11/21/2022 2:04:20 AM it failed");
        assert_eq!(masked, "at <time> <time> AM it failed");
        let iso = mask_entities("ts=2022-11-21T02:04:20Z ok");
        assert!(iso.contains("<time>"));
    }

    #[test]
    fn hex_ids_and_numbers_are_masked() {
        let masked = mask_entities("trace 3fa85f64-5717 pid 203736 port 25");
        assert!(masked.contains("<hexid>"));
        assert!(masked.contains("<num>"));
        // Two-digit numbers survive: they are often meaningful (error codes).
        assert!(masked.ends_with("port 25"));
    }

    #[test]
    fn exception_names_survive_masking() {
        let masked = mask_entities("InformativeSocketException: No such host is known.");
        assert!(masked.contains("InformativeSocketException:"));
    }

    #[test]
    fn punctuation_preserved_around_masks() {
        let masked = mask_entities("(11/21/2022)");
        assert_eq!(masked, "(<time>)");
    }

    #[test]
    fn tokenize_splits_dotted_identifiers() {
        let toks = tokenize("System.IO.IOException at TcpClientFactory.Create(...)");
        assert!(toks.contains(&"system".to_string()));
        assert!(toks.contains(&"ioexception".to_string()));
        assert!(toks.contains(&"tcpclientfactory".to_string()));
    }

    #[test]
    fn tokenize_keeps_placeholders() {
        let toks = tokenize("probe from <machine> at <time> count <num>");
        assert!(toks.contains(&"<machine>".to_string()));
        assert!(toks.contains(&"<time>".to_string()));
        assert!(toks.contains(&"<num>".to_string()));
    }

    #[test]
    fn tokenize_handles_unclosed_angle() {
        let toks = tokenize("a < b and a <b");
        assert_eq!(toks, vec!["a", "b", "and", "a"]);
    }

    #[test]
    fn masking_is_idempotent() {
        let once = mask_entities("NAMPR03MB1234 at 2:04:20");
        let twice = mask_entities(&once);
        assert_eq!(once, twice);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn mask_entities_is_idempotent(s in "[ -~]{0,120}") {
            let once = mask_entities(&s);
            prop_assert_eq!(mask_entities(&once), once.clone());
        }

        #[test]
        fn normalize_is_idempotent(s in "[ -~\\n\\t]{0,120}") {
            let once = normalize(&s);
            prop_assert_eq!(normalize(&once), once.clone());
        }

        #[test]
        fn tokenize_yields_no_empty_tokens(s in "[ -~]{0,160}") {
            for tok in tokenize(&normalize(&s)) {
                prop_assert!(!tok.is_empty());
            }
        }

        #[test]
        fn normalize_lowercases_each_char_and_joins_words(s in "[ -~\t\n\u{3000}\u{c0}-\u{17f}\u{391}-\u{3c9}\u{130}\u{212a}]{0,120}") {
            let words: Vec<String> = s
                .split_whitespace()
                .map(|w| w.chars().flat_map(char::to_lowercase).collect())
                .collect();
            prop_assert_eq!(normalize(&s), words.join(" "));
        }

        #[test]
        fn normalize_never_grows_whitespace(s in "[ -~ ]{0,160}") {
            let out = normalize(&s);
            prop_assert!(!out.contains("  "), "double space in {out:?}");
            prop_assert!(!out.starts_with(' '));
            prop_assert!(!out.ends_with(' '));
        }
    }
}
