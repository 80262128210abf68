//! A tolerant recursive-descent *item* parser over the token stream: it
//! recovers `fn` definitions (with their `impl` owner, parameters, and
//! body token range), inline `mod` nesting, and `use` aliases — the
//! structure the interprocedural rules (R6–R8) build their call graph
//! from.
//!
//! Like [`crate::items`] it is deliberately not a Rust parser: it
//! brace-matches balanced delimiters, pattern-matches the item shapes it
//! cares about, and silently skips anything else. Two hard guarantees
//! instead of completeness:
//!
//! * it never panics or loops on arbitrary input (pinned by the
//!   robustness proptest in `tests/proptests.rs`);
//! * delimiter nesting deeper than [`MAX_DELIM_DEPTH`] makes the rest of
//!   the enclosing item opaque instead of recursing further, so
//!   pathological input degrades to "no items seen", never to a stack
//!   overflow.

use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;

/// Delimiter-nesting budget: deeper than this, the parser stops looking
/// inside (a hand-written 64-deep expression is already absurd; fuzzed
/// input goes far past it).
pub const MAX_DELIM_DEPTH: u32 = 64;

/// One parsed function definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Index of the defining file in the workspace scan order.
    pub file: usize,
    /// Function name.
    pub name: String,
    /// `impl` target type when the fn is a method/associated fn.
    pub owner: Option<String>,
    /// Inline `mod` path within the file (outermost first).
    pub module: Vec<String>,
    /// Parameters in order, `self` included (as a typeless param).
    pub params: Vec<Param>,
    /// Token-index range of the body, exclusive of the braces; `(i, i)`
    /// for bodyless signatures.
    pub body: (usize, usize),
    /// Line of the `fn` keyword.
    pub line: u32,
    /// The definition sits inside a `#[cfg(test)]` / `#[test]` region.
    pub is_test: bool,
    /// The signature's return type mentions `Result` (a *hint* from the
    /// tokens between the parameter list and the body, not a resolved
    /// type — used by R11 to spot discarded fallible IO).
    pub returns_result: bool,
}

/// One parameter of a [`FnDef`].
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name (`self` for receivers; empty for unnamed patterns).
    pub name: String,
    /// Identifier tokens appearing in the declared type (a *hint* for
    /// receiver-type resolution, not a resolved type).
    pub type_idents: Vec<String>,
}

/// Everything the parser recovered from one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Function definitions in source order.
    pub fns: Vec<FnDef>,
    /// `use` aliases: `(alias, original final segment)`. Plain `use a::b`
    /// contributes `(b, b)` so resolution can tell imported names apart
    /// from unknown ones.
    pub aliases: Vec<(String, String)>,
}

/// Parse the items of `file` (workspace file index `file_idx`).
pub fn parse_file(file: &SourceFile, file_idx: usize) -> ParsedFile {
    let mut out = ParsedFile::default();
    let tokens = &file.tokens;
    let mut module: Vec<(String, usize)> = Vec::new(); // (name, close idx)
    let mut owners: Vec<(String, usize)> = Vec::new(); // (impl type, close idx)
    let mut i = 0usize;
    while i < tokens.len() {
        module.retain(|&(_, close)| i <= close);
        owners.retain(|&(_, close)| i <= close);
        let t = &tokens[i];
        if t.is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            i = match_delim(tokens, i + 1) + 1;
            continue;
        }
        if t.is_ident("mod") {
            if let (Some(name), Some(open)) = (
                tokens.get(i + 1).filter(|t| t.kind == TokenKind::Ident),
                tokens.get(i + 2),
            ) {
                if open.is_punct('{') {
                    module.push((name.text.clone(), match_delim(tokens, i + 2)));
                    i += 3;
                    continue;
                }
            }
            i += 1;
            continue;
        }
        if t.is_ident("impl") {
            if let Some((ty, open)) = impl_target(tokens, i) {
                owners.push((ty, match_delim(tokens, open)));
                i = open + 1;
                continue;
            }
            i += 1;
            continue;
        }
        if t.is_ident("use") {
            i = parse_use(tokens, i, &mut out.aliases);
            continue;
        }
        if t.is_ident("fn") {
            if let Some((def, next)) = parse_fn(file, file_idx, tokens, i, &module, &owners) {
                let after_body = def.body.1.max(i);
                out.fns.push(def);
                // Keep scanning *inside* the body too: nested fns and
                // closures define further items the graph should see.
                i = next.min(after_body + 1).max(i + 1);
                continue;
            }
            i += 1;
            continue;
        }
        i += 1;
    }
    out
}

/// Parse one `fn` at `tokens[at]`. Returns the definition and the token
/// index scanning should continue from (just after the signature, so
/// nested items inside the body are still visited).
fn parse_fn(
    file: &SourceFile,
    file_idx: usize,
    tokens: &[Token],
    at: usize,
    module: &[(String, usize)],
    owners: &[(String, usize)],
) -> Option<(FnDef, usize)> {
    let name_tok = tokens.get(at + 1).filter(|t| t.kind == TokenKind::Ident)?;
    // Skip generics to the parameter list.
    let mut j = at + 2;
    if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
        j = match_angle(tokens, j)? + 1;
    }
    if !tokens.get(j).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    let params_close = match_delim(tokens, j);
    let params = parse_params(tokens, j + 1, params_close);
    // Find the body `{` (skipping `-> Type` and `where` clauses); a `;`
    // first means a bodyless trait/extern signature.
    let mut k = params_close + 1;
    let mut angle = 0i32;
    let body = loop {
        let Some(t) = tokens.get(k) else {
            break (k, k);
        };
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle = (angle - 1).max(0);
        } else if angle == 0 && t.is_punct(';') {
            break (k, k);
        } else if angle == 0 && t.is_punct('{') {
            break (k + 1, match_delim(tokens, k));
        } else if angle == 0 && (t.is_punct('(') || t.is_punct('[')) {
            // e.g. `-> (A, B)` / `-> [u8; 4]` return types.
            k = match_delim(tokens, k);
        }
        k += 1;
    };
    let returns_result = tokens[params_close + 1..body.0.min(tokens.len())]
        .iter()
        .any(|t| t.is_ident("Result"));
    let def = FnDef {
        file: file_idx,
        name: name_tok.text.clone(),
        owner: owners.last().map(|(ty, _)| ty.clone()),
        module: module.iter().map(|(m, _)| m.clone()).collect(),
        params,
        body,
        line: tokens[at].line,
        is_test: file.in_test_region(at),
        returns_result,
    };
    Some((def, params_close + 1))
}

/// Parse a parameter list between `start..end` (inside the parens).
fn parse_params(tokens: &[Token], start: usize, end: usize) -> Vec<Param> {
    let mut params = Vec::new();
    for range in split_top_level_commas(tokens, start, end) {
        let (s, e) = range;
        if s >= e {
            continue;
        }
        // Receiver forms: `self`, `&self`, `&mut self`, `&'a self`.
        if tokens[s..e].iter().any(|t| t.is_ident("self"))
            && !tokens[s..e].iter().any(|t| t.is_punct(':'))
        {
            params.push(Param {
                name: "self".to_string(),
                type_idents: Vec::new(),
            });
            continue;
        }
        // `pattern : Type` — the name is the first ident of the pattern
        // (`mut x`, `(a, b)` patterns contribute their first binding).
        let colon = (s..e).find(|&k| tokens[k].is_punct(':') && depth_at(tokens, s, k) == 0);
        let (pat_end, ty_start) = match colon {
            Some(c) => (c, c + 1),
            None => (e, e),
        };
        let name = tokens[s..pat_end]
            .iter()
            .find(|t| t.kind == TokenKind::Ident && !t.is_ident("mut") && !t.is_ident("ref"))
            .map(|t| t.text.clone())
            .unwrap_or_default();
        let type_idents = tokens[ty_start..e]
            .iter()
            .filter(|t| t.kind == TokenKind::Ident && !t.is_ident("mut") && !t.is_ident("dyn"))
            .map(|t| t.text.clone())
            .collect();
        params.push(Param { name, type_idents });
    }
    params
}

/// `impl<...> Type {` / `impl<...> Trait for Type {` — the target type
/// name and the index of the opening `{`.
fn impl_target(tokens: &[Token], at: usize) -> Option<(String, usize)> {
    let mut j = at + 1;
    if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
        j = match_angle(tokens, j)? + 1;
    }
    let mut angle = 0i32;
    let mut last_ident: Option<&Token> = None;
    let mut after_for: Option<&Token> = None;
    let mut seen_for = false;
    while let Some(t) = tokens.get(j) {
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle = (angle - 1).max(0);
        } else if angle == 0 && t.is_punct('{') {
            let ty = after_for.or(last_ident)?;
            return Some((ty.text.clone(), j));
        } else if angle == 0 && (t.is_punct(';') || t.is_ident("fn")) {
            return None; // gave up: not an inherent/trait impl block shape
        } else if t.kind == TokenKind::Ident && angle == 0 {
            if t.is_ident("for") {
                seen_for = true;
                after_for = None;
            } else if t.is_ident("where") {
                // `where` clause: the target is already known.
            } else if seen_for {
                after_for = Some(t);
            } else {
                last_ident = Some(t);
            }
        }
        j += 1;
    }
    None
}

/// Parse a `use` item, recording aliases; returns the index after `;`.
fn parse_use(tokens: &[Token], at: usize, aliases: &mut Vec<(String, String)>) -> usize {
    let mut j = at + 1;
    let mut last: Option<String> = None;
    let mut pending_alias = false;
    while let Some(t) = tokens.get(j) {
        if t.is_punct(';') {
            if let Some(name) = last.take() {
                aliases.push((name.clone(), name));
            }
            return j + 1;
        }
        if t.is_punct('{') || t.is_punct(',') || t.is_punct('}') {
            if let Some(name) = last.take() {
                aliases.push((name.clone(), name));
            }
            pending_alias = false;
        } else if t.is_ident("as") {
            pending_alias = true;
        } else if t.kind == TokenKind::Ident {
            if pending_alias {
                // `use a::b as c` — c resolves to b.
                let original = last.take().unwrap_or_else(|| t.text.clone());
                aliases.push((t.text.clone(), original));
                pending_alias = false;
            } else {
                last = Some(t.text.clone());
            }
        }
        j += 1;
    }
    tokens.len()
}

/// Split `start..end` at top-level commas (delimiters and `<>` nested).
pub(crate) fn split_top_level_commas(
    tokens: &[Token],
    start: usize,
    end: usize,
) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut seg = start;
    let end = end.min(tokens.len());
    for (k, t) in tokens.iter().enumerate().take(end).skip(start) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle = (angle - 1).max(0);
        } else if depth == 0 && angle == 0 && t.is_punct(',') {
            out.push((seg, k));
            seg = k + 1;
        }
    }
    if seg < end {
        out.push((seg, end));
    }
    out
}

/// Brace/bracket/paren depth of `at` relative to `start`.
fn depth_at(tokens: &[Token], start: usize, at: usize) -> i32 {
    let mut depth = 0i32;
    for t in &tokens[start..at] {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        }
    }
    depth
}

/// Index of the delimiter matching `tokens[open]` (`{`/`(`/`[`), with the
/// [`MAX_DELIM_DEPTH`] budget: deeper nesting is treated as opaque and
/// the scan runs to the end (callers then see "no item here").
pub(crate) fn match_delim(tokens: &[Token], open: usize) -> usize {
    let (inc, dec) = match tokens.get(open).map(|t| t.text.as_str()) {
        Some("(") => ('(', ')'),
        Some("[") => ('[', ']'),
        _ => ('{', '}'),
    };
    let mut depth = 0u32;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(inc) {
            depth += 1;
            if depth > MAX_DELIM_DEPTH {
                return tokens.len().saturating_sub(1);
            }
        } else if t.is_punct(dec) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return k;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// Index of the `>` closing the `<` at `open` (angle brackets do not
/// nest with other delimiters reliably; `None` past the depth budget or
/// at EOF so callers fall back to "not generics").
fn match_angle(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0u32;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('<') {
            depth += 1;
            if depth > MAX_DELIM_DEPTH {
                return None;
            }
        } else if t.is_punct('>') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return Some(k);
            }
        } else if t.is_punct(';') || t.is_punct('{') {
            return None; // statement boundary: this `<` was a comparison
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn parse(src: &str) -> ParsedFile {
        parse_file(&SourceFile::parse("test.rs".to_string(), src, &[]), 0)
    }

    #[test]
    fn free_fn_and_method_are_recovered_with_owner_and_params() {
        let src = "fn free(a: u32, mut b: &str) -> u32 { a }\n\
                   struct S;\n\
                   impl S {\n\
                       pub fn method(&self, cache: &SiteCache) -> bool { true }\n\
                   }\n\
                   impl Clone for S { fn clone(&self) -> S { S } }";
        let parsed = parse(src);
        let names: Vec<(&str, Option<&str>)> = parsed
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.owner.as_deref()))
            .collect();
        assert_eq!(
            names,
            [("free", None), ("method", Some("S")), ("clone", Some("S"))]
        );
        let free = &parsed.fns[0];
        assert_eq!(free.params.len(), 2);
        assert_eq!(free.params[0].name, "a");
        assert_eq!(free.params[1].name, "b");
        let method = &parsed.fns[1];
        assert_eq!(method.params[0].name, "self");
        assert_eq!(method.params[1].name, "cache");
        assert!(method.params[1]
            .type_idents
            .contains(&"SiteCache".to_string()));
    }

    #[test]
    fn generic_fn_where_clause_and_return_types_do_not_confuse_the_body() {
        let src = "fn g<T: Ord>(x: Vec<T>) -> Option<(T, T)> where T: Clone { inner(x) }";
        let parsed = parse(src);
        assert_eq!(parsed.fns.len(), 1);
        let f = &parsed.fns[0];
        assert!(f.body.1 > f.body.0);
        assert_eq!(f.params.len(), 1);
        assert_eq!(f.params[0].name, "x");
    }

    #[test]
    fn inline_mod_path_and_test_regions_are_tracked() {
        let src = "mod inner { fn here() { a(); } }\n\
                   #[cfg(test)]\nmod tests { fn t() { b(); } }\n\
                   fn after() {}";
        let parsed = parse(src);
        let here = parsed.fns.iter().find(|f| f.name == "here").unwrap();
        assert_eq!(here.module, ["inner"]);
        assert!(!here.is_test);
        let t = parsed.fns.iter().find(|f| f.name == "t").unwrap();
        assert!(t.is_test);
        let after = parsed.fns.iter().find(|f| f.name == "after").unwrap();
        assert!(after.module.is_empty());
    }

    #[test]
    fn use_aliases_and_groups_are_recorded() {
        let src = "use std::mem::take;\nuse a::b as c;\nuse x::{y, z as w};\nfn f() {}";
        let parsed = parse(src);
        assert!(parsed.aliases.contains(&("take".into(), "take".into())));
        assert!(parsed.aliases.contains(&("c".into(), "b".into())));
        assert!(parsed.aliases.contains(&("y".into(), "y".into())));
        assert!(parsed.aliases.contains(&("w".into(), "z".into())));
    }

    #[test]
    fn trait_signature_without_body_yields_empty_body() {
        let src = "trait T { fn sig(&self) -> u8; }\nfn real() { x(); }";
        let parsed = parse(src);
        let sig = parsed.fns.iter().find(|f| f.name == "sig").unwrap();
        assert_eq!(sig.body.0, sig.body.1);
        let real = parsed.fns.iter().find(|f| f.name == "real").unwrap();
        assert!(real.body.1 > real.body.0);
    }

    #[test]
    fn nested_fn_inside_a_body_is_still_visited() {
        let src = "fn outer() { fn inner(q: u8) { leaf(); } inner(1); }";
        let parsed = parse(src);
        let names: Vec<&str> = parsed.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner"]);
    }

    #[test]
    fn pathological_nesting_stays_bounded_and_silent() {
        let mut src = String::from("fn deep() { ");
        for _ in 0..5000 {
            src.push('(');
        }
        for _ in 0..5000 {
            src.push(')');
        }
        src.push('}');
        let parsed = parse(&src); // must not overflow the stack or loop
        assert!(parsed.fns.len() <= 1);
    }
}
