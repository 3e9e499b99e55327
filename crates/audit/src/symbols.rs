//! Pass 1 of the interprocedural analysis: the workspace symbol table.
//!
//! Walks every scanned file's token stream and records each `fn`
//! definition with enough context for call-graph construction: crate and
//! module path (file layout plus inline `mod` blocks), the owning
//! `impl` block's type and trait (when any), the parameter arity
//! (receiver included), the parameter and body token spans, whether the
//! item is plain `pub` or test-only — plus every named struct field's
//! declared type. No type checking happens here — the
//! table is a name/arity index that pass 2 ([`crate::callgraph`])
//! resolves against, binding receiver types only where the source states
//! them.

use crate::lexer::{Token, TokenKind};
use crate::rules::{test_mod_decls, test_spans};
use std::collections::BTreeMap;

/// One file's lexed token stream plus derived spans, shared by every pass.
#[derive(Debug)]
pub struct FileTokens {
    /// Crate directory name under `crates/`.
    pub krate: String,
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// `#[cfg(test)] mod` spans (token index ranges, half-open); the
    /// whole stream when the file is an out-of-line test module.
    pub test_spans: Vec<(usize, usize)>,
}

impl FileTokens {
    /// Lexes `source` and computes the test spans.
    pub fn new(krate: &str, rel: &str, source: &str) -> FileTokens {
        let tokens = crate::lexer::lex(source);
        let test_spans = test_spans(&tokens);
        FileTokens {
            krate: krate.to_string(),
            rel: rel.to_string(),
            tokens,
            test_spans,
        }
    }

    /// Whether token index `i` lies inside a `#[cfg(test)] mod` span.
    pub fn in_test_span(&self, i: usize) -> bool {
        self.test_spans.iter().any(|&(a, b)| i >= a && i < b)
    }

    /// Marks the whole file as test code: it is the body of an
    /// out-of-line `#[cfg(test)] mod` (see [`FileTokens::test_mod_files`]).
    pub fn mark_test_only(&mut self) {
        self.test_spans = vec![(0, self.tokens.len())];
    }

    /// The workspace-relative paths that may hold the body of each
    /// out-of-line `#[cfg(test)] mod name;` declared here: `name.rs` and
    /// `name/mod.rs`, beside a `lib.rs`/`main.rs`/`mod.rs` and under the
    /// file's stem otherwise.
    pub fn test_mod_files(&self) -> Vec<String> {
        let (dir, file) = self.rel.rsplit_once('/').unwrap_or(("", &self.rel));
        let stem = file.strip_suffix(".rs").unwrap_or(file);
        let base = if matches!(stem, "lib" | "main" | "mod") {
            dir.to_string()
        } else {
            format!("{dir}/{stem}")
        };
        test_mod_decls(&self.tokens)
            .iter()
            .flat_map(|name| [format!("{base}/{name}.rs"), format!("{base}/{name}/mod.rs")])
            .collect()
    }
}

/// One `fn` definition (or trait-method declaration, when `body` is None).
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Crate directory name.
    pub krate: String,
    /// Index into the scanned file list.
    pub file: usize,
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// Module path within the crate (`pipeline::merge`; empty at root).
    pub module: String,
    /// `impl` block owner type name, when defined inside one.
    pub owner: Option<String>,
    /// Trait name for `impl Trait for Owner` methods (also set for
    /// method declarations inside `trait Trait { ... }` blocks).
    pub trait_name: Option<String>,
    /// The function name.
    pub name: String,
    /// Parameter count, receiver included (`fn f(&self, x: u32)` → 2).
    pub arity: usize,
    /// Token index span of the parameter list, half-open, excluding the
    /// parentheses.
    pub params: (usize, usize),
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token index span of the body, half-open, excluding the braces.
    /// `None` for bodiless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// Whether the item is test-only (`#[cfg(test)]` span, `#[test]`).
    pub is_test: bool,
    /// Whether the item is declared plain `pub` (not `pub(crate)`).
    pub is_pub: bool,
}

impl FnDef {
    /// Stable display id: `crate::module::Owner::name` (module/owner
    /// segments omitted when absent).
    pub fn id(&self) -> String {
        let mut s = self.krate.clone();
        if !self.module.is_empty() {
            s.push_str("::");
            s.push_str(&self.module);
        }
        if let Some(owner) = &self.owner {
            s.push_str("::");
            s.push_str(owner);
        }
        s.push_str("::");
        s.push_str(&self.name);
        s
    }
}

/// The workspace symbol table: every fn definition, indexed by name.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// All definitions, in (file, token) order.
    pub fns: Vec<FnDef>,
    /// Name → indices into `fns`.
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// `(struct, field)` → the base name of the field's declared type, from
    /// the named-field struct declarations (capitalised names only); `None`
    /// where two structs of one name disagree.
    pub fields: BTreeMap<(String, String), Option<String>>,
}

impl SymbolTable {
    /// Builds the table over every scanned file.
    pub fn build(files: &[FileTokens]) -> SymbolTable {
        let mut table = SymbolTable::default();
        for (file_idx, ft) in files.iter().enumerate() {
            scan_file(file_idx, ft, &mut table);
        }
        for (i, def) in table.fns.iter().enumerate() {
            table.by_name.entry(def.name.clone()).or_default().push(i);
        }
        table
    }

    /// The type name of `owner`'s field `field`, when its declaration
    /// states one.
    pub fn field_type(&self, owner: &str, field: &str) -> Option<&str> {
        self.fields
            .get(&(owner.to_string(), field.to_string()))?
            .as_deref()
    }

    /// Definitions implementing `Trait::method` (impl blocks only, not
    /// the trait's own declaration), excluding test-only items.
    pub fn trait_impls(&self, trait_name: &str, method: &str) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, d)| {
                d.name == method
                    && d.trait_name.as_deref() == Some(trait_name)
                    && d.body.is_some()
                    && !d.is_test
            })
            .map(|(i, _)| i)
            .collect()
    }
}

/// Module path derived from the file's location under `crates/<k>/src/`.
fn file_module(rel: &str, krate: &str) -> String {
    let prefix = format!("crates/{krate}/src/");
    let Some(tail) = rel.strip_prefix(&prefix) else {
        return String::new();
    };
    let tail = tail.strip_suffix(".rs").unwrap_or(tail);
    let mut parts: Vec<&str> = tail.split('/').collect();
    if matches!(parts.last().copied(), Some("lib" | "main" | "mod")) {
        parts.pop();
    }
    parts.join("::")
}

/// Brace matching: open token index → close token index (unmatched opens
/// map to one past the last token, so spans stay well-formed).
fn brace_pairs(tokens: &[Token]) -> BTreeMap<usize, usize> {
    let mut pairs = BTreeMap::new();
    let mut stack = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.is_punct("{") {
            stack.push(i);
        } else if t.is_punct("}") {
            if let Some(open) = stack.pop() {
                pairs.insert(open, i);
            }
        }
    }
    for open in stack {
        pairs.insert(open, tokens.len());
    }
    pairs
}

#[derive(Debug)]
enum ScopeKind {
    Mod(String),
    Impl {
        owner: String,
        trait_name: Option<String>,
    },
    Trait(String),
}

struct Scope {
    kind: ScopeKind,
    close: usize,
}

fn scan_file(file_idx: usize, ft: &FileTokens, table: &mut SymbolTable) {
    let tokens = &ft.tokens;
    let braces = brace_pairs(tokens);
    let base_module = file_module(&ft.rel, &ft.krate);
    let mut scopes: Vec<Scope> = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        while scopes.last().is_some_and(|s| i > s.close) {
            scopes.pop();
        }
        let t = &tokens[i];
        if t.is_ident("mod")
            && tokens
                .get(i + 1)
                .is_some_and(|n| n.kind == TokenKind::Ident)
            && tokens.get(i + 2).is_some_and(|n| n.is_punct("{"))
        {
            let close = braces.get(&(i + 2)).copied().unwrap_or(tokens.len());
            scopes.push(Scope {
                kind: ScopeKind::Mod(tokens[i + 1].text.clone()),
                close,
            });
            i += 3;
            continue;
        }
        if t.is_ident("impl") {
            if let Some((owner, trait_name, open)) = parse_impl_header(tokens, i) {
                let close = braces.get(&open).copied().unwrap_or(tokens.len());
                scopes.push(Scope {
                    kind: ScopeKind::Impl { owner, trait_name },
                    close,
                });
                i = open + 1;
                continue;
            }
        }
        if t.is_ident("trait")
            && tokens
                .get(i + 1)
                .is_some_and(|n| n.kind == TokenKind::Ident)
        {
            // `trait Name [<...>] [: bounds] {` — method declarations inside
            // settle trait calls even without a default body.
            if let Some(open) = (i + 2..tokens.len().min(i + 40))
                .find(|&j| tokens[j].is_punct("{"))
                .filter(|&j| !(i + 2..j).any(|k| tokens[k].is_punct(";")))
            {
                let close = braces.get(&open).copied().unwrap_or(tokens.len());
                scopes.push(Scope {
                    kind: ScopeKind::Trait(tokens[i + 1].text.clone()),
                    close,
                });
                i = open + 1;
                continue;
            }
        }
        // `fn name` — a definition (a bare `fn(` is a fn-pointer type).
        if t.is_ident("fn")
            && tokens
                .get(i + 1)
                .is_some_and(|n| n.kind == TokenKind::Ident)
        {
            if let Some(def) = parse_fn(file_idx, ft, &braces, &scopes, &base_module, i) {
                table.fns.push(def);
            }
        }
        if t.is_ident("struct") {
            struct_fields(tokens, &braces, i, &mut table.fields);
        }
        i += 1;
    }
}

/// Parses `impl [<G>] [Trait for] Type [where ...] {`, returning the owner
/// type name, the trait name and the body-open token index.
fn parse_impl_header(tokens: &[Token], i: usize) -> Option<(String, Option<String>, usize)> {
    let mut j = i + 1;
    if tokens.get(j).is_some_and(|t| t.is_punct("<")) {
        j = skip_angles(tokens, j)?;
    }
    let (first, mut j) = parse_type_path(tokens, j)?;
    let mut trait_name = None;
    let mut owner = first;
    if tokens.get(j).is_some_and(|t| t.is_ident("for")) {
        let (second, k) = parse_type_path(tokens, j + 1)?;
        trait_name = Some(owner);
        owner = second;
        j = k;
    }
    // Skip a `where` clause; the next `{` at this level opens the body.
    let mut k = j;
    while k < tokens.len() && !tokens[k].is_punct("{") {
        if tokens[k].is_punct(";") {
            return None; // `impl Trait for Type;` — not a block
        }
        k += 1;
    }
    (k < tokens.len()).then_some((owner, trait_name, k))
}

/// Parses a type path (`cshard_runtime::driver::ProtocolDriver`,
/// `Box<D>`, `&mut T`), returning its final base identifier and the index
/// just past the path.
pub(crate) fn parse_type_path(tokens: &[Token], mut j: usize) -> Option<(String, usize)> {
    while tokens
        .get(j)
        .is_some_and(|t| t.is_punct("&") || t.is_ident("mut") || t.is_ident("dyn"))
        || tokens.get(j).is_some_and(|t| t.kind == TokenKind::Lifetime)
    {
        j += 1;
    }
    let mut last = None;
    loop {
        let t = tokens.get(j)?;
        if t.kind != TokenKind::Ident {
            break;
        }
        last = Some(t.text.clone());
        j += 1;
        if tokens.get(j).is_some_and(|t| t.is_punct("<")) {
            j = skip_angles(tokens, j)?;
        }
        if tokens.get(j).is_some_and(|t| t.is_punct("::")) {
            j += 1;
            continue;
        }
        break;
    }
    last.map(|l| (l, j))
}

/// The type a binding's declared type `tokens[j..]` names, when it is a
/// type name (capitalised; `Self` is `owner`): the base of its path, so
/// `&mut Stats`, `cshard_settle::SettleStats` and `Vec<u8>` name `Stats`,
/// `SettleStats` and `Vec`. Type parameters name themselves, and select
/// no candidate.
pub(crate) fn type_name(tokens: &[Token], j: usize, owner: Option<&str>) -> Option<String> {
    named_type(&parse_type_path(tokens, j)?.0, owner)
}

/// `name` when it names a type (capitalised; `Self` is `owner`).
pub(crate) fn named_type(name: &str, owner: Option<&str>) -> Option<String> {
    if name == "Self" {
        return owner.map(str::to_string);
    }
    name.starts_with(|c: char| c.is_ascii_uppercase())
        .then(|| name.to_string())
}

/// Records the field types of the named-field `struct` whose keyword sits
/// at `i` (tuple and unit structs have none to name).
fn struct_fields(
    tokens: &[Token],
    braces: &BTreeMap<usize, usize>,
    i: usize,
    fields: &mut BTreeMap<(String, String), Option<String>>,
) {
    let Some(name) = tokens.get(i + 1).map(|t| &t.text) else {
        return;
    };
    let body =
        (i + 2..tokens.len()).find(|&k| ["{", "(", ";"].iter().any(|p| tokens[k].is_punct(p)));
    let Some(&close) = body.and_then(|open| braces.get(&open)) else {
        return;
    };
    for k in ascriptions(tokens, body.unwrap_or(close) + 1, close) {
        let ty = type_name(tokens, k + 2, Some(name));
        fields
            .entry((name.clone(), tokens[k].text.clone()))
            .and_modify(|known| {
                if *known != ty {
                    *known = None;
                }
            })
            .or_insert(ty);
    }
}

/// The name of each top-level `name: Type` in `tokens[start..end]` (a
/// parameter list or a struct body), as token indices.
pub(crate) fn ascriptions(tokens: &[Token], start: usize, end: usize) -> Vec<usize> {
    let mut depth = 0i32;
    let mut out = Vec::new();
    for k in start..end {
        let t = &tokens[k];
        if ["(", "[", "{", "<"].iter().any(|p| t.is_punct(p)) {
            depth += 1;
        } else if [")", "]", "}", ">"].iter().any(|p| t.is_punct(p)) {
            depth -= 1;
        } else if depth == 0 && t.kind == TokenKind::Ident && tokens[k + 1].is_punct(":") {
            out.push(k);
        }
    }
    out
}

/// Skips a balanced `<...>` group starting at `j` (which points at `<`).
fn skip_angles(tokens: &[Token], mut j: usize) -> Option<usize> {
    let mut depth = 0usize;
    while j < tokens.len() {
        if tokens[j].is_punct("<") {
            depth += 1;
        } else if tokens[j].is_punct(">") {
            depth -= 1;
            if depth == 0 {
                return Some(j + 1);
            }
        } else if tokens[j].is_punct("{") || tokens[j].is_punct(";") {
            return None; // runaway — not a generics group after all
        }
        j += 1;
    }
    None
}

fn parse_fn(
    file_idx: usize,
    ft: &FileTokens,
    braces: &BTreeMap<usize, usize>,
    scopes: &[Scope],
    base_module: &str,
    i: usize,
) -> Option<FnDef> {
    let tokens = &ft.tokens;
    let name = tokens[i + 1].text.clone();
    let mut j = i + 2;
    if tokens.get(j).is_some_and(|t| t.is_punct("<")) {
        j = skip_angles(tokens, j)?;
    }
    if !tokens.get(j).is_some_and(|t| t.is_punct("(")) {
        return None;
    }
    let (arity, after_params) = count_params(tokens, j)?;
    let params = (j + 1, after_params - 1);
    // Signature tail: the body `{` or a declaration-ending `;`, at zero
    // bracket depth (return types like `-> [u8; 32]` contain `;`).
    let mut k = after_params;
    let (mut par, mut brk, mut ang) = (0i32, 0i32, 0i32);
    let body = loop {
        let t = tokens.get(k)?;
        if t.is_punct("(") {
            par += 1;
        } else if t.is_punct(")") {
            par -= 1;
        } else if t.is_punct("[") {
            brk += 1;
        } else if t.is_punct("]") {
            brk -= 1;
        } else if t.is_punct("<") {
            ang += 1;
        } else if t.is_punct(">") {
            ang = (ang - 1).max(0);
        } else if par == 0 && brk == 0 {
            if t.is_punct(";") && ang == 0 {
                break None;
            }
            if t.is_punct("{") {
                let close = braces.get(&k).copied().unwrap_or(tokens.len());
                break Some((k + 1, close));
            }
        }
        k += 1;
    };
    let (mut owner, mut trait_name) = (None, None);
    let mut module = base_module.to_string();
    for scope in scopes {
        match &scope.kind {
            ScopeKind::Mod(m) => {
                if !module.is_empty() {
                    module.push_str("::");
                }
                module.push_str(m);
            }
            ScopeKind::Impl {
                owner: o,
                trait_name: t,
            } => {
                owner = Some(o.clone());
                trait_name = t.clone();
            }
            ScopeKind::Trait(t) => {
                owner = Some(t.clone());
                trait_name = Some(t.clone());
            }
        }
    }
    let (attrs, is_pub) = item_attrs(tokens, i);
    // `#[test]`, `#[cfg(test)]`, `#[tokio::test]` — but not `#[cfg(not(test))]`.
    let is_test = ft.in_test_span(i)
        || (attrs.iter().any(|a| a == "test") && !attrs.iter().any(|a| a == "not"));
    Some(FnDef {
        krate: ft.krate.clone(),
        file: file_idx,
        path: ft.rel.clone(),
        module,
        owner,
        trait_name,
        name,
        arity,
        params,
        line: tokens[i].line,
        body,
        is_test,
        is_pub,
    })
}

/// Counts parameters in the group opening at `open` (which points at `(`),
/// returning `(count, index past the close paren)`. Top-level commas are
/// counted with closure parameter pipes (`|a, b|`) skipped.
pub(crate) fn count_params(tokens: &[Token], open: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    let mut commas = 0usize;
    let mut any = false;
    let mut last_was_comma = false;
    let mut j = open;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            // A group opening at the top level starts an argument.
            any |= depth == 1;
            last_was_comma &= depth != 1;
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
            if depth == 0 && t.is_punct(")") {
                if any && !last_was_comma {
                    commas += 1; // final parameter has no trailing comma
                }
                return Some((commas, j + 1));
            }
        } else if depth == 1 {
            if t.is_punct(",") {
                commas += 1;
                last_was_comma = true;
                j += 1;
                continue;
            }
            if t.is_punct("|") && closure_opens(tokens, j) {
                j = skip_closure_params(tokens, j);
                any = true;
                last_was_comma = false;
                continue;
            }
            any = true;
            last_was_comma = false;
        }
        j += 1;
    }
    None
}

/// Whether the `|` at `j` opens closure parameters (it directly follows a
/// `(`/`,`/`=`/`move`, i.e. expression-start position, not a binary or).
pub(crate) fn closure_opens(tokens: &[Token], j: usize) -> bool {
    j > 0
        && (tokens[j - 1].is_punct("(")
            || tokens[j - 1].is_punct(",")
            || tokens[j - 1].is_punct("=")
            || tokens[j - 1].is_ident("move"))
}

/// Skips from an opening closure `|` to just past its closing `|`.
fn skip_closure_params(tokens: &[Token], open: usize) -> usize {
    let mut j = open + 1;
    while j < tokens.len() {
        if tokens[j].is_punct("|") {
            return j + 1;
        }
        // A closure parameter list cannot contain `;` or `{`.
        if tokens[j].is_punct(";") || tokens[j].is_punct("{") {
            return j;
        }
        j += 1;
    }
    j
}

/// Identifiers appearing inside the attributes (`#[...]`) directly above
/// the item whose `fn` keyword sits at `i` — visibility qualifiers are
/// walked through — and whether the item is plain `pub` (not
/// `pub(crate)`).
fn item_attrs(tokens: &[Token], i: usize) -> (Vec<String>, bool) {
    let mut idents = Vec::new();
    let mut is_pub = false;
    let mut j = i;
    // Walk left over `pub(crate) const async unsafe extern "C" default`.
    while j > 0 {
        let p = &tokens[j - 1];
        let qualifier = ["pub", "const", "async", "unsafe", "extern", "default"]
            .iter()
            .any(|q| p.is_ident(q))
            || p.is_ident("crate")
            || p.is_ident("super")
            || p.is_ident("in")
            || p.is_punct("(")
            || p.is_punct(")")
            || p.kind == TokenKind::Literal;
        if !qualifier {
            break;
        }
        is_pub |= p.is_ident("pub") && !tokens[j].is_punct("(");
        j -= 1;
    }
    // Then over any number of `#[...]` groups.
    while j >= 2 && tokens[j - 1].is_punct("]") {
        let close = j - 1;
        let mut depth = 0i32;
        let mut open = close;
        loop {
            if tokens[open].is_punct("]") {
                depth += 1;
            } else if tokens[open].is_punct("[") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if open == 0 {
                return (idents, is_pub);
            }
            open -= 1;
        }
        if open == 0 || !tokens[open - 1].is_punct("#") {
            break;
        }
        for t in &tokens[open + 1..close] {
            if t.kind == TokenKind::Ident {
                idents.push(t.text.clone());
            }
        }
        j = open - 1;
    }
    (idents, is_pub)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(src: &str) -> SymbolTable {
        let ft = FileTokens::new("core", "crates/core/src/pipeline/merge.rs", src);
        SymbolTable::build(&[ft])
    }

    #[test]
    fn free_fn_and_module_path() {
        let t = table("pub fn helper(a: u32, b: u32) -> u32 { a }");
        assert_eq!(t.fns.len(), 1);
        let d = &t.fns[0];
        assert_eq!(d.id(), "core::pipeline::merge::helper");
        assert_eq!(d.arity, 2);
        assert!(d.body.is_some());
    }

    #[test]
    fn impl_trait_method_is_owned_and_traited() {
        let src = "
            struct MergeStage;
            impl Stage for MergeStage {
                fn run(&mut self, ctx: &mut Ctx<'_>) -> Result<(), Error> { Ok(()) }
            }
            impl MergeStage {
                fn inherent(&self) {}
            }
        ";
        let t = table(src);
        let run = t.fns.iter().find(|d| d.name == "run").unwrap();
        assert_eq!(run.owner.as_deref(), Some("MergeStage"));
        assert_eq!(run.trait_name.as_deref(), Some("Stage"));
        assert_eq!(run.arity, 2);
        let inherent = t.fns.iter().find(|d| d.name == "inherent").unwrap();
        assert_eq!(inherent.owner.as_deref(), Some("MergeStage"));
        assert_eq!(inherent.trait_name, None);
    }

    #[test]
    fn generic_impl_for_box_resolves_owner() {
        let src = "
            impl<D: ProtocolDriver + ?Sized> ProtocolDriver for Box<D> {
                fn on_event(&mut self, t: SimTime, ev: Event, ctx: &mut Ctx) -> Result<(), Error> {
                    (**self).on_event(t, ev, ctx)
                }
            }
        ";
        let t = table(src);
        let d = &t.fns[0];
        assert_eq!(d.owner.as_deref(), Some("Box"));
        assert_eq!(d.trait_name.as_deref(), Some("ProtocolDriver"));
        assert_eq!(d.arity, 4);
    }

    #[test]
    fn trait_declarations_are_recorded_bodiless() {
        let src = "
            pub trait GameDynamics {
                fn step(&mut self);
                fn converged(&self) -> bool { false }
            }
        ";
        let t = table(src);
        let step = t.fns.iter().find(|d| d.name == "step").unwrap();
        assert_eq!(step.trait_name.as_deref(), Some("GameDynamics"));
        assert!(step.body.is_none());
        let conv = t.fns.iter().find(|d| d.name == "converged").unwrap();
        assert!(conv.body.is_some());
    }

    #[test]
    fn array_return_type_semicolon_does_not_end_the_signature() {
        let t = table("pub fn digest(&self) -> [u8; 32] { [0; 32] }");
        assert_eq!(t.fns.len(), 1);
        assert!(t.fns[0].body.is_some(), "{:?}", t.fns[0]);
    }

    #[test]
    fn closure_commas_do_not_inflate_arity() {
        let t = table("fn drain(a: u32, f: F) -> u32 { go(a, |x, y| x + y) }");
        assert_eq!(t.fns[0].arity, 2);
    }

    #[test]
    fn test_attrs_are_seen() {
        let src = "
            #[cfg(not(test))]
            pub fn old_run() {}
            #[test]
            fn check() {}
            #[cfg(test)]
            mod tests {
                fn helper_in_tests() {}
            }
        ";
        let t = table(src);
        let old = t.fns.iter().find(|d| d.name == "old_run").unwrap();
        assert!(!old.is_test);
        assert!(t.fns.iter().find(|d| d.name == "check").unwrap().is_test);
        assert!(
            t.fns
                .iter()
                .find(|d| d.name == "helper_in_tests")
                .unwrap()
                .is_test
        );
    }

    #[test]
    fn inline_mods_extend_the_module_path() {
        let t = table("mod inner { pub fn f() {} }");
        assert_eq!(t.fns[0].id(), "core::pipeline::merge::inner::f");
    }

    #[test]
    fn trait_impls_lists_impls_not_declarations() {
        let src = "
            trait Driver { fn on_event(&mut self, e: u32) -> bool; }
            struct A; struct B;
            impl Driver for A { fn on_event(&mut self, e: u32) -> bool { true } }
            impl Driver for B { fn on_event(&mut self, e: u32) -> bool { false } }
        ";
        let t = table(src);
        let impls = t.trait_impls("Driver", "on_event");
        assert_eq!(impls.len(), 2);
        assert!(impls
            .iter()
            .all(|&i| t.fns[i].trait_name.as_deref() == Some("Driver")));
    }
}
