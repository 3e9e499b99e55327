//! A minimal Rust lexer: just enough token structure for the audit rules.
//!
//! The workspace builds fully offline with an in-tree dependency set, so a
//! `syn`-grade parser is not available; the rules instead work on a token
//! stream. The lexer's job is to make that stream trustworthy: comments
//! (line, block, nested block, doc), string literals (plain, raw, byte),
//! char literals vs. lifetimes, and numeric literals are all classified,
//! so a rule matching `unwrap` never fires on a doc example or a string.

/// What a token is, at the granularity the rules need.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`Instant`, `for`, `unwrap`, ...).
    Ident,
    /// Any punctuation byte sequence the lexer does not merge (`.`/`::`/
    /// `==`/`!=`/`#`/`[`/... — multi-byte operators that the rules care
    /// about are merged into one token).
    Punct,
    /// An integer or float literal; `is_float` distinguishes them.
    Number {
        /// True for literals with a fractional part, exponent, or an
        /// `f32`/`f64` suffix — the operands the float-equality rule
        /// tracks.
        is_float: bool,
    },
    /// A string, raw string, byte string or char literal (contents are
    /// opaque to every rule).
    Literal,
    /// A lifetime (`'a`) — kept distinct so `'static` is never an Ident.
    Lifetime,
}

/// One token with its source position.
#[derive(Clone, Debug)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// The token text, verbatim.
    pub text: String,
    /// 1-based line of the token's first byte.
    pub line: usize,
}

impl Token {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == s
    }
}

/// Lexes `source` into tokens, dropping comments and whitespace.
///
/// The lexer is forgiving: on a construct it cannot classify (stray byte,
/// unterminated literal) it consumes one byte and moves on, because audit
/// rules must never make the build fail on code `rustc` accepts — worst
/// case a malformed region yields no tokens and therefore no findings.
pub fn lex(source: &str) -> Vec<Token> {
    let b = source.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    let mut line = 1;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                i += 2;
                let mut depth = 1usize;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                let (end, newlines) = skip_string(b, i);
                tokens.push(Token {
                    kind: TokenKind::Literal,
                    text: source[i..end].to_string(),
                    line,
                });
                line += newlines;
                i = end;
            }
            b'r' if starts_raw_ident(b, i) => {
                // A raw identifier (`r#type`, `r#fn`) is one Ident token,
                // prefix preserved: definitions and call sites then match
                // each other textually, and the `fn`-like suffix can never
                // be mistaken for a keyword by token-stream passes.
                let mut end = i + 2;
                while end < b.len() && (b[end].is_ascii_alphanumeric() || b[end] == b'_') {
                    end += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: source[i..end].to_string(),
                    line,
                });
                i = end;
            }
            b'r' | b'b' if starts_raw_or_byte_string(b, i) => {
                let (end, newlines) = skip_raw_or_byte_string(b, i);
                tokens.push(Token {
                    kind: TokenKind::Literal,
                    text: source[i..end].to_string(),
                    line,
                });
                line += newlines;
                i = end;
            }
            b'\'' => {
                // Lifetime or char literal. A lifetime is `'` + ident not
                // followed by a closing quote (`'a`, `'static`); anything
                // else (`'x'`, `'\n'`, `'\u{1F600}'`) is a char literal.
                if let Some(end) = lifetime_end(b, i) {
                    tokens.push(Token {
                        kind: TokenKind::Lifetime,
                        text: source[i..end].to_string(),
                        line,
                    });
                    i = end;
                } else {
                    let end = skip_char_literal(b, i);
                    tokens.push(Token {
                        kind: TokenKind::Literal,
                        text: source[i..end].to_string(),
                        line,
                    });
                    i = end;
                }
            }
            c if c.is_ascii_digit() => {
                let (end, is_float) = scan_number(b, i);
                tokens.push(Token {
                    kind: TokenKind::Number { is_float },
                    text: source[i..end].to_string(),
                    line,
                });
                i = end;
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let mut end = i + 1;
                while end < b.len() && (b[end].is_ascii_alphanumeric() || b[end] == b'_') {
                    end += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: source[i..end].to_string(),
                    line,
                });
                i = end;
            }
            _ => {
                let end = scan_punct(b, i);
                tokens.push(Token {
                    kind: TokenKind::Punct,
                    text: source[i..end].to_string(),
                    line,
                });
                i = end;
            }
        }
    }
    tokens
}

/// Multi-byte operators merged into a single `Punct` token; everything else
/// is one byte. Only operators a rule distinguishes need merging.
const MERGED_PUNCT: &[&str] = &["::", "==", "!=", "->", "=>", "..=", "..", "<=", ">="];

fn scan_punct(b: &[u8], i: usize) -> usize {
    for m in MERGED_PUNCT {
        if b[i..].starts_with(m.as_bytes()) {
            return i + m.len();
        }
    }
    i + 1
}

fn skip_string(b: &[u8], start: usize) -> (usize, usize) {
    // start points at the opening quote.
    let mut i = start + 1;
    let mut newlines = 0;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'\n' => {
                newlines += 1;
                i += 1;
            }
            b'"' => return (i + 1, newlines),
            _ => i += 1,
        }
    }
    (b.len(), newlines)
}

fn starts_raw_ident(b: &[u8], i: usize) -> bool {
    // `r#` followed by an identifier start and NOT by `"` (that would be a
    // raw string with one hash: `r#"..."#`).
    b[i..].starts_with(b"r#")
        && b.get(i + 2)
            .is_some_and(|&c| c.is_ascii_alphabetic() || c == b'_')
}

fn starts_raw_or_byte_string(b: &[u8], i: usize) -> bool {
    // r"..."  r#"..."#  br"..."  b"..."  b'..' — anything that opens a
    // string/byte literal with an `r`/`b` prefix.
    let rest = &b[i..];
    if rest.starts_with(b"r\"") || rest.starts_with(b"r#") {
        return true;
    }
    if rest.starts_with(b"b\"") || rest.starts_with(b"b'") {
        return true;
    }
    rest.starts_with(b"br\"") || rest.starts_with(b"br#")
}

fn skip_raw_or_byte_string(b: &[u8], start: usize) -> (usize, usize) {
    let mut i = start;
    if b[i] == b'b' {
        i += 1;
    }
    if i < b.len() && b[i] == b'\'' {
        return (skip_char_literal(b, i), 0);
    }
    if i < b.len() && b[i] == b'r' {
        i += 1;
        let mut hashes = 0;
        while i < b.len() && b[i] == b'#' {
            hashes += 1;
            i += 1;
        }
        if i < b.len() && b[i] == b'"' {
            i += 1;
            let mut newlines = 0;
            while i < b.len() {
                if b[i] == b'\n' {
                    newlines += 1;
                    i += 1;
                } else if b[i] == b'"'
                    && b[i + 1..].len() >= hashes
                    && b[i + 1..i + 1 + hashes].iter().all(|&c| c == b'#')
                {
                    return (i + 1 + hashes, newlines);
                } else {
                    i += 1;
                }
            }
            return (b.len(), newlines);
        }
        // `r` was just an identifier start after all (e.g. `r#foo` raw
        // ident) — treat the prefix as consumed text up to here.
        return (i, 0);
    }
    // b"..."
    let (end, newlines) = skip_string(b, i);
    (end, newlines)
}

fn lifetime_end(b: &[u8], i: usize) -> Option<usize> {
    // `'` ident-start, and the char after the ident run is NOT `'`.
    let first = *b.get(i + 1)?;
    if !(first.is_ascii_alphabetic() || first == b'_') {
        return None;
    }
    let mut end = i + 2;
    while end < b.len() && (b[end].is_ascii_alphanumeric() || b[end] == b'_') {
        end += 1;
    }
    if b.get(end) == Some(&b'\'') {
        None // 'x' — a char literal
    } else {
        Some(end)
    }
}

fn skip_char_literal(b: &[u8], start: usize) -> usize {
    let mut i = start + 1;
    if i < b.len() && b[i] == b'\'' {
        i += 1;
    }
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'\'' => return i + 1,
            b'\n' => return i, // unterminated; bail at the line end
            _ => i += 1,
        }
    }
    b.len()
}

fn scan_number(b: &[u8], start: usize) -> (usize, bool) {
    let mut i = start;
    let mut is_float = false;
    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
        i += 1;
    }
    // A fractional part only counts when followed by a digit — `1.` in
    // `1..n` is a range, `x.0` handled by the ident path (tuple index).
    if i < b.len() && b[i] == b'.' && b.get(i + 1).is_some_and(|c| c.is_ascii_digit()) {
        is_float = true;
        i += 1;
        while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
            i += 1;
        }
    }
    let text = &b[start..i];
    if text.ends_with(b"f32") || text.ends_with(b"f64") {
        is_float = true;
    }
    // Exponents: 1e9 (without a dot) — alphanumeric scan already took the
    // `e9`; classify as float only when an explicit sign follows (`1e-9`).
    if !is_float && i < b.len() && (b[i] == b'-' || b[i] == b'+') && ends_with_exponent(text) {
        if b.get(i + 1).is_some_and(|c| c.is_ascii_digit()) {
            is_float = true;
            i += 1;
            while i < b.len() && b[i].is_ascii_digit() {
                i += 1;
            }
        }
    } else if !is_float && contains_exponent(text) {
        is_float = true;
    }
    (i, is_float)
}

fn ends_with_exponent(text: &[u8]) -> bool {
    text.len() >= 2 && (text[text.len() - 1] == b'e' || text[text.len() - 1] == b'E')
}

fn contains_exponent(text: &[u8]) -> bool {
    // `1e9` is a float; `0x1e9` is hex; `1u64` has no exponent.
    if text.starts_with(b"0x") || text.starts_with(b"0X") {
        return false;
    }
    text.iter().skip(1).any(|&c| c == b'e' || c == b'E')
        && text
            .iter()
            .all(|&c| c.is_ascii_digit() || c == b'e' || c == b'E' || c == b'_')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn comments_and_strings_disappear() {
        let toks = texts("let x = \"Instant::now()\"; // Instant\n/* Instant */ y");
        assert!(toks.contains(&"x".to_string()));
        assert!(toks.contains(&"y".to_string()));
        assert!(!toks.contains(&"Instant".to_string()));
    }

    #[test]
    fn nested_block_comments() {
        let toks = texts("/* a /* b */ still comment */ real");
        assert_eq!(toks, vec!["real"]);
    }

    #[test]
    fn raw_strings_are_single_literals() {
        let toks = lex("r#\"has \"quotes\" inside\"# tail");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[1].text, "tail");
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("&'static str; 'x'; '\\n'");
        assert_eq!(toks[1].kind, TokenKind::Lifetime);
        assert_eq!(toks[1].text, "'static");
        let chars: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .collect();
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn float_classification() {
        let kinds: Vec<bool> = lex("1.5 2 3.0f64 4f32 1e-9 0x1e9 7u64 1..3")
            .into_iter()
            .filter_map(|t| match t.kind {
                TokenKind::Number { is_float } => Some(is_float),
                _ => None,
            })
            .collect();
        assert_eq!(
            kinds,
            vec![true, false, true, true, true, false, false, false, false]
        );
    }

    #[test]
    fn raw_idents_are_single_ident_tokens() {
        // `r#type` must not decay into a bogus `r#` literal followed by a
        // keyword-looking `type` ident (that corrupted the symbol pass).
        let toks = lex("fn r#type() { r#fn() }");
        let raws: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Ident && t.text.starts_with("r#"))
            .collect();
        assert_eq!(raws.len(), 2, "{toks:?}");
        assert_eq!(raws[0].text, "r#type");
        assert_eq!(raws[1].text, "r#fn");
        assert!(!toks
            .iter()
            .any(|t| t.is_ident("type") || t.is_ident("fn") && t.text == "type"));
    }

    #[test]
    fn banned_idents_inside_raw_strings_never_tokenize() {
        // Multi-hash raw strings with quote-hash runs inside: every banned
        // name stays inside one Literal token.
        let src = r####"let x = r##"Instant::now() "# thread_rng() unwrap()"## ; tail"####;
        let toks = lex(src);
        for banned in ["Instant", "thread_rng", "unwrap"] {
            assert!(!toks.iter().any(|t| t.is_ident(banned)), "{banned} leaked");
        }
        assert!(toks.iter().any(|t| t.is_ident("tail")));
    }

    #[test]
    fn unterminated_raw_string_with_partial_hash_close_consumes_to_eof() {
        // `r##"..."#` — one hash short of closing. The old lexer's
        // `take(hashes)` check treated EOF as a match and resumed lexing
        // mid-literal; everything must stay inside the literal instead.
        let toks = lex("r##\"body\"# Instant::now()");
        assert!(!toks.iter().any(|t| t.is_ident("Instant")), "{toks:?}");
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].kind, TokenKind::Literal);
    }

    #[test]
    fn banned_idents_inside_nested_block_comments_never_tokenize() {
        let src = "/* outer /* SystemTime::now() /* deeper unwrap() */ */ still */ fn f() {}";
        let toks = lex(src);
        assert!(!toks.iter().any(|t| t.is_ident("SystemTime")));
        assert!(!toks.iter().any(|t| t.is_ident("unwrap")));
        assert!(toks.iter().any(|t| t.is_ident("f")));
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "a\n\"two\nlines\"\nb";
        let toks = lex(src);
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 4);
    }

    #[test]
    fn merged_operators() {
        let toks = texts("a == b != c :: d");
        assert!(toks.contains(&"==".to_string()));
        assert!(toks.contains(&"!=".to_string()));
        assert!(toks.contains(&"::".to_string()));
    }
}
