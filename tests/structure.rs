//! The structure gates: the GW spine is spelled once, the worker pool gets
//! batches with stated costs, and every `pub` item has a caller that is
//! not a test. Every gate reads one corpus, the non-test code of
//! `crates/*/src`, `src/`, `benchmark/src` and `examples/` as [`lex`] sees
//! it. `cargo test --test structure -- --nocapture` prints every count, so
//! a before/after is one command.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::Path;
use std::sync::OnceLock;

/// A line of non-test code: file relative to the repo root, 1-based line
/// number, code.
type Line = (String, usize, String);

/// What a count row allows: exactly, or at most (a ceiling, lowered by the
/// change that lowers the count).
#[derive(Debug)]
enum Want {
    Is(usize),
    AtMost(usize),
}
use Want::*;

/// The two driver files of the GW spine: `core::service` and the one-shot
/// drivers over its shared stages.
const SPINE: &[&str] = &["crates/core/src/workflow.rs", "crates/core/src/service.rs"];
const SERVE: &[&str] = &["crates/serve/src/"];
const CRATES: &[&str] = &["crates/"];
const FORK: &str = "a driver re-spells the spine; route it through core::service";
const DAEMON: &str = "the daemon runs the spine's Sigma row, codec and Dyson assembly, not its own";
const PANICS: &str = "a panic site was added; return a typed error instead";

/// The count gate: scope (path prefixes, `!` excludes one), needles (a line
/// counts if any occurs; `#` is a run of `[0-9_]`, `@` a run of `[a-z_]`),
/// the count allowed, and the reason printed when it is not met.
#[rustfmt::skip]
const ROWS: &[(&[&str], &[&str], Want, &str)] = &[
    (&["crates/", "!crates/core/src/mtxel.rs"], &["pair_from_real("], Is(0), "route pair loops through Mtxel::pairs_from_real, one pooled region per band"),
    (CRATES, &["Flops(#)"], Is(0), "a call site states its cost as an operation count, never a threshold of its own"),
    (&["crates/core/src/sigma/imagaxis.rs"], &["corr[("], Is(0), "q_k(n) is one ZGEMM per (node, Sigma band), not element indexing"),
    (&["crates/core/src/sigma/imagaxis.rs"], &["correlation_part("], Is(1), "one hoisted correlation matrix, built at one call site"),
    (&["crates/core/src/spacetime.rs"], &["while r0 < npts"], Is(0), "a row batch is the space-time chi's parallel unit, on the pool"),
    (&["crates/core/src/chi.rs"], &["Op::Adj"], Is(1), "one CHI-SUM body: every chi build contracts 2 M^H (Delta M) in chi_freqs_core"),
    (&["crates/core/src/sigma/diag.rs"], &["fn row_optimized"], Is(0), "the scalar twin of the GPP lane groups lives only in the test tail, as their bitwise oracle"),
    (&["crates/core/src/sigma/diag.rs"], &["parallel_reduce("], Is(0), "GPP band partials are written per lane group and folded in band order"),
    (&["crates/linalg/src/gemm.rs", "crates/linalg/src/microkernel/mod.rs"], &["autotune"], Is(0), "production GEMM tiles are a constant; wiring a table back in is a perf change with a measured claim"),
    (SPINE, &["solve_bands("], Is(1), FORK),
    (SPINE, &["Coulomb::bulk_for_cell"], Is(1), FORK),
    (SPINE, &["Coulomb::slab("], Is(1), FORK),
    (SPINE, &["bands_around_gap.max(1)"], Is(1), FORK),
    (&["crates/core/src/", "crates/serve/src/"], &["e - @, e, e + @"], Is(1), "the [e - d, e, e + d] grid is built in one place"),
    (SERVE, &["gpp_sigma_diag("], Is(0), DAEMON),
    (SERVE, &["solve_qp_diag("], Is(0), DAEMON),
    (SERVE, &["save_partial", "load_partial", "clear_partial", "add_interest", "release_interest", ".to_checkpoint()", "SigmaRows::from_checkpoint"], Is(0), "the store holds screenings only: a batch runs to completion, so its Sigma rows live and die inside one step and need no record, refcount or orphan sweep"),
    (SERVE, &["Preempted", "Resumed", "fn cancel", "enqueue_with_cancel", "record_serve_preemption", "peek"], Is(0), "a batch runs to completion: priority and admission act on the queue only, never between the rows of a running batch"),
    (CRATES, &["CheckpointPolicy", "read_latest_checkpoint", "run_evgw", "evgw_", "SigmaPartial", "ChiPartial", "EvGwIter", "abort_after_writes"], Is(0), "DESIGN Sec. 10 - a one-shot run restarts from zero and a served W survives in the store, so the screening record is the one record the program writes; the checkpointed and evGW drivers had no caller, and one comes back only with a caller and a workload that reaches it"),
    (CRATES, &["fn band_slice", "struct BatchPartial", "fn gpp_rows_preemptible"], Is(0), "the Sigma row is the unit: no band slices or batch partials"),
    (&["crates/bench/", "examples/"], &["GppModel::new("], Is(0), "W is built by core::service; start from service::build_screening"),
    (CRATES, &["run_world(", "fn shrink("], Is(0), "the decompositions run in one process; a simulated rank world comes back only with a workload that measures it"),
    (CRATES, &["TaskGraph", "DagStats", "record_dag_"], Is(0), "one executor: the phase barrier; a task DAG comes back only with a workload where it beats the barrier by more than 1.2x (EXPERIMENTS.md, the DAG-vs-barrier verdict)"),
    (&["crates/", "src/", "examples/"], &["GwTimings", ".timed(", "fn charge(", "kernel_seconds", "prep_seconds", "t_diag"], Is(0), "stage time is the span tree: Stage::run opens the span, and no struct keeps a second clock of a region a span measures"),
    (&["crates/", "src/", "examples/"], &["FaultPlan", "FaultKind", "fault_gate", "max_request_retries", "AutotuneTable", "fn default_path"], Is(0), "DESIGN Sec. 10 - one process meets no crash to re-enqueue and no transient to back off from, so the daemon has no injected-fault gate; and no GEMM reads a tuned table, so none is persisted. Either comes back only with a workload that meets it"),
    (&["crates/fft/src/"], &["Bluestein", "combine_generic", "dft_tw"], Is(0), "every FFT length is 5-smooth (good_size sizes every grid), so one batched radix-2/3/4/5 kernel runs them all; a chirp-z or large-prime path reaches no input"),
    (&["crates/trace/src/", "crates/serve/src/key.rs"], &["fn from_json", "fn parse("], Is(0), "the program writes bgw-trace/1 reports and canonical key strings and never reads either back: golden tests compare to_json() bytes, and the store compares canonical strings"),
    (&["crates/core/src/"], &["Instant::now"], AtMost(12), "every remaining clock read in bgw-core fills a field benchmark/src/adapter.rs reads (ChiTimings, SigmaDiagResult::seconds, the FF seconds, SpaceTimeReport::t_*); ROADMAP item 6(d) moves the adapter onto spans, then the row goes to 0"),
    (&["crates/io/src/"], &["unwrap()", "expect(", "assert"], AtMost(1), PANICS),
    (&["crates/serve/src/store.rs"], &["unwrap()", "expect(", "assert"], AtMost(0), "a panic site was added; return a typed error instead (this row is lexical: an arithmetic overflow or an index out of range panics without a needle, so a length read off disk is bounded before it sizes or indexes anything)"),
];

/// The item gate's allowlist: file, item (`Type::name`; a trailing `*`
/// stands for any text) and the reason it is kept without a caller.
#[rustfmt::skip]
const ALLOW: &[(&str, &str, &str)] = &[
    ("crates/core/src/workflow.rs", "run_full_dyson_gw", "ROADMAP items 29(b) and 5(c) - the paper's Sec. 5.6 full solution of Dyson's equation, whose diagonal reference tests/pipeline.rs holds to run_gpp_gw bit for bit; 5(c) keeps or deletes it with the off-diagonal kernel"),
    ("crates/core/src/testkit.rs", "*", "test fixture - the small Si context unit tests, tests/ and examples share"),
    ("crates/perf/src/counters.rs", "exclusive_test_guard", "test fixture - serializes the tests of every crate that read the process-wide counters"),
    ("crates/core/src/chi.rs", "ChiEngine::m_panel", "the panel tests/determinism.rs holds to the one-pair path, bit for bit"),
    ("crates/core/src/mtxel.rs", "Mtxel::pair_from_real", "the one-pair path tests/determinism.rs holds the batched pairs_from_real rows to, bit for bit"),
    ("crates/core/src/sigma/diag.rs", "measured_alpha", "tests/trace_report.rs fits the Eq. 7 prefactor of the live GPP kernel with it"),
    ("crates/core/src/sigma/offdiag.rs", "offdiag_flops_eq8", "ROADMAP item 5(c) - the oracle for the counted FLOPs of the off-diagonal kernel"),
    ("crates/perf/src/flopmodel.rs", "ff_sigma_flops", "the closed-form model tests/trace_report.rs holds the counted FLOPs of the live kernel to"),
    ("crates/perf/src/flopmodel.rs", "imagaxis_sigma_flops", "the closed-form model tests/trace_report.rs holds the counted FLOPs of the live kernel to"),
    ("crates/num/src/simd.rs", "force", "the forced-dispatch tests of bgw-num, bgw-fft and bgw-linalg pin the process-wide ISA with it (three crates, so not cfg(test))"),
    ("crates/fft/src/plan.rs", "dft_reference", "the O(n^2) direct sum, a different algorithm from the mixed-radix kernel, that the bgw-fft unit tests and tests/properties.rs hold every transform to"),
    ("crates/linalg/src/gemm.rs", "zgemm_reference", "the triple loop the tests hold the blocked kernel to: no packing, a different summation order"),
    ("crates/linalg/src/matrix.rs", "CMatrix::adjoint", "the explicit (A B)^H tests/properties.rs holds the Op::Adj GEMM to"),
    ("crates/linalg/src/matrix.rs", "CMatrix::random_hermitian", "the Hermitian input tests/properties.rs drives eigh with"),
    ("crates/linalg/src/matrix.rs", "CMatrix::hermiticity_error", "the check the unit tests of chi0, eps^-1, Sigma, GWPT and the Hamiltonian hold their outputs to (three crates, so not cfg(test))"),
    ("crates/serve/src/core.rs", "ServeCore::run_until_idle", "the single-threaded drive of the engine that tests/serve.rs replays; the threaded Server runs the same enqueue and step one batch at a time"),
    ("crates/trace/src/report.rs", "RunReport::*", "the views of a report (pruned and scrubbed, which tests/serve.rs pins the served golden with; render_tree, which examples/quickstart.rs prints and the report unit tests pin)"),
    ("crates/core/src/pseudobands.rs", "chebyshev_pseudoband", "ROADMAP item 7 wires the Chebyshev-Jackson construction into the band prefix or deletes it with num::chebyshev"),
    ("crates/num/src/chebyshev.rs", "*", "ROADMAP item 7 keeps or deletes the module whole"),
    ("crates/num/src/stats.rs", "RunningStats::variance", "the spread pseudobands::tests::larger_n_xi_reduces_variance holds to shrink with N_xi (a bgw-core test, so not cfg(test))"),
    ("crates/pwdft/src/hamiltonian.rs", "Hamiltonian::spectral_bounds", "ROADMAP item 7 - the spectral window of the Chebyshev-Jackson construction"),
    ("crates/num/src/minimax.rs", "*", "ROADMAP item 3 keeps or deletes the space-time chi and this module whole"),
    ("crates/pwdft/src/kpoints.rs", "*", "DESIGN Sec. 2 - the band structure along L-Gamma-X is the evidence that the model pseudopotential is physical (examples/band_structure.rs, si_model_band_topology)"),
    ("crates/pwdft/src/lattice.rs", "Crystal::diamond_primitive", "DESIGN Sec. 2 - the primitive cell that band structure is computed in"),
    ("crates/pwdft/src/solver.rs", "Wavefunctions::gap_ry", "the mean-field gap examples/defect_qubit.rs and examples/bn_sheet_defect.rs print and check a defect against"),
];

/// `(path, line, code)` for each line of `src` that holds non-test code.
/// Comments, doc comments included, are cut; string, byte-string,
/// raw-string and char literals are emptied (`""`, `' '`); `pub mod`
/// lines and whole `pub use ...;` statements are dropped; and the item a
/// `#[cfg(test)]` attribute is on is cut up to its closing `}` or `;`.
fn lex(path: &str, src: &str) -> Vec<Line> {
    let s: Vec<char> = src.chars().collect();
    let at = |i: usize| s.get(i).copied().unwrap_or(' ');
    let ident = |i: usize| i < s.len() && (s[i].is_alphanumeric() || s[i] == '_');
    // Hashes of a raw string opening at `i`: `r` or `br` outside an
    // identifier, then `#*"`.
    let raw = |i: usize| {
        let free = |j: usize| j == 0 || !ident(j - 1);
        let n = s[i + 1..].iter().take_while(|&&h| h == '#').count();
        (s[i] == 'r' && (free(i) || at(i - 1) == 'b' && free(i - 1)) && at(i + 1 + n) == '"')
            .then_some(n)
    };
    // None: code; Some(0): line comment; Some(-k): block comment at depth
    // k; Some(1): string; Some(h + 2): raw string closing on `"` + h `#`.
    let (mut out, mut mode, mut i) = (String::new(), None::<i64>, 0);
    while i < s.len() {
        let (c, d, mut step) = (s[i], at(i + 1), 1);
        if c == '\n' && mode.is_some() {
            out.push('\n');
        }
        match mode {
            None if c == '/' && d == '/' => mode = Some(0),
            None if c == '/' && d == '*' => (mode, step) = (Some(-1), 2),
            None if c == '"' || c == 'r' && raw(i).is_some() => {
                let h = if c == '"' { None } else { raw(i) };
                (mode, step) = h.map_or((Some(1), 1), |h| (Some(h as i64 + 2), h + 2));
                out.push('"');
            }
            None if c == '\'' && (d == '\\' || at(i + 2) == '\'') => {
                let from = i + 2 + usize::from(d == '\\');
                step = from - i + 1 + s[from..].iter().position(|&q| q == '\'').unwrap_or(0);
                out.push_str("' '");
            }
            None => out.push(c),
            Some(0) if c == '\n' => mode = None,
            Some(k) if k < 0 && c == '/' && d == '*' => (mode, step) = (Some(k - 1), 2),
            Some(k) if k < 0 && c == '*' && d == '/' => {
                (mode, step) = ((k < -1).then_some(k + 1), 2);
            }
            Some(1) if c == '\\' => step = 1 + usize::from(d != '\n'),
            Some(k)
                if k > 0 && c == '"' && (1..k.max(2) - 1).all(|j| at(i + j as usize) == '#') =>
            {
                (mode, step) = (None, k.max(2) as usize - 1);
                out.push('"');
            }
            Some(_) => {}
        }
        i += step;
    }
    // Cut each `#[cfg(test)]` item: to the `}` that closes its block (and a
    // `;` right after it), to its `;`, or to the close of what encloses it.
    let mut b = out.into_bytes();
    let attr = b"#[cfg(test)]";
    let mut from = 0;
    while let Some(p) = b[from..].windows(attr.len()).position(|w| w == attr) {
        let (p, mut depth) = (from + p, 0);
        let mut end = p + attr.len();
        while end < b.len() {
            match b[end] {
                b'{' | b'(' | b'[' => depth += 1,
                b'}' | b')' | b']' => depth -= 1,
                b';' if depth == 0 => break,
                _ => {}
            }
            if depth < 0 {
                end -= 1;
                break;
            }
            if b[end] == b'}' && depth == 0 {
                let k = b[end + 1..].iter().position(|x| !x.is_ascii_whitespace());
                end += k.filter(|&k| b[end + 1 + k] == b';').map_or(0, |k| k + 1);
                break;
            }
            end += 1;
        }
        let last = (end + 1).min(b.len());
        for x in b[p..last].iter_mut().filter(|x| **x != b'\n') {
            *x = b' ';
        }
        from = end;
    }
    let mut in_use = false;
    let code = String::from_utf8(b).expect("only ASCII bytes were blanked");
    let mut lines = vec![];
    for (n, l) in code.lines().enumerate() {
        let t = l.trim();
        if in_use || t.starts_with("pub use ") {
            in_use = !t.contains(';');
        } else if !t.is_empty() && !t.starts_with("pub mod ") {
            lines.push((path.to_string(), n + 1, l.trim_end().to_string()));
        }
    }
    lines
}

/// `pat` occurs in `s`; in `pat`, `#` stands for a run of `[0-9_]` and
/// `@` for a run of `[a-z_]`.
fn find(s: &str, pat: &str) -> bool {
    fn here(s: &[u8], p: &[u8]) -> bool {
        match p.split_first() {
            None => true,
            Some((&c @ (b'#' | b'@'), rest)) => {
                let class = [u8::is_ascii_digit, u8::is_ascii_lowercase][usize::from(c == b'@')];
                let n = s.iter().take_while(|x| **x == b'_' || class(x)).count();
                (1..=n).any(|k| here(&s[k..], rest))
            }
            Some((c, rest)) => s.first() == Some(c) && here(&s[1..], rest),
        }
    }
    (0..s.len()).any(|i| here(&s.as_bytes()[i..], pat.as_bytes()))
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The source of `file`, relative to the repo root.
fn read(file: &str) -> String {
    fs::read_to_string(root().join(file)).expect("a readable source")
}

/// Every `.rs` file under `dirs`, relative to the repo root, sorted.
fn rs_files(dirs: &[&str]) -> Vec<String> {
    let mut out = vec![];
    for dir in dirs {
        for e in fs::read_dir(root().join(dir)).expect("a source directory") {
            let p = format!(
                "{dir}/{}",
                e.expect("a directory entry").file_name().to_string_lossy()
            );
            match root().join(&p).is_dir() {
                true => out.extend(rs_files(&[&p])),
                false => out.extend(Some(p).filter(|p| p.ends_with(".rs"))),
            }
        }
    }
    out.sort();
    out
}

/// The corpus every gate reads: the non-test code of the library,
/// regenerator, benchmark and example sources, file by file.
fn corpus() -> &'static [Line] {
    static CORPUS: OnceLock<Vec<Line>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut files = rs_files(&["crates", "src", "benchmark/src", "examples"]);
        files.retain(|f| !f.starts_with("crates/") || f.split('/').nth(2) == Some("src"));
        files.iter().flat_map(|f| lex(f, &read(f))).collect()
    })
}

/// The kind and name of the item a line defines if it opens a `pub` fn,
/// struct, enum, trait, const, static, type or union (`pub(crate)` items
/// are not `pub`).
fn pub_item(code: &str) -> Option<(&str, &str)> {
    const KINDS: [&str; 8] = [
        "fn", "struct", "enum", "trait", "const", "static", "type", "union",
    ];
    let rest = code.trim_start().strip_prefix("pub ")?;
    let w: Vec<&str> = rest.split_whitespace().filter(|&x| x != "mut").collect();
    let qualifier = |x: Option<&&str>| matches!(x, Some(&("const" | "unsafe" | "async")));
    let mut i = 0;
    while qualifier(w.get(i))
        && (qualifier(w.get(i + 1)) || w.get(i + 1).is_some_and(|k| KINDS.contains(k)))
    {
        i += 1;
    }
    let (kind, name) = (*w.get(i)?, word(w.get(i + 1)?, '_'));
    (KINDS.contains(&kind) && !name.is_empty()).then_some((kind, name))
}

/// The type an `impl` header line implements for.
fn impl_type(code: &str) -> Option<&str> {
    let t = code.trim_start();
    let mut h = t
        .strip_prefix("unsafe ")
        .unwrap_or(t)
        .strip_prefix("impl")?;
    if h.starts_with('<') {
        let mut g = 0;
        let close = h.find(|c| {
            g += (c == '<') as i32 - (c == '>') as i32;
            g == 0
        })?;
        h = &h[close + 1..];
    } else if !h.starts_with(' ') {
        return None;
    }
    h = h.find(" for ").map_or(h, |k| &h[k + 5..]);
    h = h.trim_start_matches([' ', '\t', '&']);
    h = h.strip_prefix("dyn ").unwrap_or(h);
    word(h, ':').rsplit("::").next().filter(|n| !n.is_empty())
}

/// The leading run of ASCII letters, digits, `_` and `extra` in `s`.
fn word(s: &str, extra: char) -> &str {
    let end = s.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == extra));
    &s[..end.unwrap_or(s.len())]
}

/// Whether the word at `code[at..end]` is used the way a fn is: called
/// (`name(`, `name::<`), reached by a path (`::name`) or taken as a value.
/// A word after a `.` that is not called reads a field, and a word before
/// a lone `:` names a field or a binding; neither is a use of a fn.
fn fn_use(code: &str, at: usize, end: usize) -> bool {
    let (before, after) = (code[..at].trim_end(), code[end..].trim_start());
    let called = after.starts_with('(') || after.starts_with("::<");
    let field = before.ends_with('.') && !before.ends_with("..") && !called;
    let named = after.starts_with(':') && !after.starts_with("::");
    !field && !named
}

/// The item gate over `corpus`: every `pub` item of `crates/*/src` is
/// named by a line outside `examples/` and outside its own definition,
/// which for a type includes every `impl ... Type` block. A type, const
/// or static counts wherever its name occurs; a fn only where [`fn_use`]
/// says so, so a same-named field does not hide it. Returns `ORPHAN` and
/// `kept without a caller` per uncalled item and `stale allowlist line`
/// per row of `allow` no item needs.
fn item_gate(corpus: &[Line], allow: &[(&str, &str, &str)]) -> Vec<String> {
    // (file, qualified name, name, is fn) per definition; (name, file,
    // first, last line) per span; (span, depth, block opened, is impl)
    // open.
    let mut defs: Vec<(&str, String, &str, bool)> = vec![];
    let mut spans: Vec<(&str, &str, usize, usize)> = vec![];
    for lines in corpus.chunk_by(|a, b| a.0 == b.0) {
        let (mut depth, mut open): (i32, Vec<(usize, i32, bool, bool)>) = (0, vec![]);
        for (file, line, code) in lines {
            let item = pub_item(code).filter(|_| file.starts_with("crates/"));
            if let Some(name) = item.map(|i| i.1).or_else(|| impl_type(code)) {
                if let Some((kind, _)) = item {
                    let qual = match open.last() {
                        Some(&(s, _, _, true)) => format!("{}::{name}", spans[s].0),
                        _ => name.to_string(),
                    };
                    defs.push((file.as_str(), qual, name, kind == "fn"));
                }
                open.push((spans.len(), depth, false, item.is_none()));
                spans.push((name, file.as_str(), *line, usize::MAX));
            }
            // A span closes on the `}` of its block, or on a `;` at its own
            // depth before any block opened.
            for c in code.bytes() {
                match c {
                    b'{' | b'(' | b'[' => depth += 1,
                    b'}' | b')' | b']' => depth -= 1,
                    _ => {}
                }
                let Some(t) = open.last_mut() else { continue };
                if c == b'{' && depth == t.1 + 1 {
                    t.2 = true;
                } else if depth == t.1 && (c == b'}' && t.2 || c == b';' && !t.2) {
                    let s = open.pop().expect("an open span").0;
                    spans[s].3 = *line;
                }
            }
        }
    }
    let defined: HashSet<&str> = defs.iter().map(|d| d.2).collect();
    let mut by_name: HashMap<&str, Vec<_>> = HashMap::new();
    for s in spans.iter().filter(|s| defined.contains(s.0)) {
        by_name.entry(s.0).or_default().push(s);
    }
    // Names occurring anywhere outside their definitions, and the subset
    // occurring as a fn is used.
    let (mut named, mut called) = (HashSet::new(), HashSet::new());
    for (file, line, code) in corpus.iter().filter(|l| !l.0.starts_with("examples/")) {
        for w in code.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
            let at = w.as_ptr() as usize - code.as_ptr() as usize;
            let own = |s: &&(&str, &str, usize, usize)| s.1 == file && (s.2..=s.3).contains(line);
            if !defined.contains(w) || called.contains(w) || by_name[w].iter().any(own) {
                continue;
            }
            named.insert(w);
            if fn_use(code, at, at + w.len()) {
                called.insert(w);
            }
        }
    }
    let mut used = vec![false; allow.len()];
    let mut report = vec![];
    let uses = |d: &(&str, String, &str, bool)| if d.3 { &called } else { &named };
    for (file, qual, _, _) in defs.iter().filter(|d| !uses(d).contains(d.2)) {
        let glob = |p: &str| {
            p.strip_suffix('*')
                .map_or(qual == p, |p| qual.starts_with(p))
        };
        match allow.iter().position(|a| a.0 == *file && glob(a.1)) {
            Some(k) => {
                used[k] = true;
                report.push(format!(
                    "kept without a caller: {file} {qual}: {}",
                    allow[k].2
                ));
            }
            None => report.push(format!("ORPHAN: {file} {qual}")),
        }
    }
    for (&(f, pat, _), _) in allow.iter().zip(used).filter(|u| !u.1) {
        report.push(format!("stale allowlist line: {f} {pat}"));
    }
    report
}

#[test]
fn count_gate_one_spine_one_floor_stated_costs() {
    let in_scope = |f: &str, scope: &[&str]| {
        let hit = |p: &str| f.starts_with(p.strip_prefix('!').unwrap_or(p));
        scope.iter().any(|p| !p.starts_with('!') && hit(p))
            && !scope.iter().any(|p| p.starts_with('!') && hit(p))
    };
    println!(
        "    corpus: {} non-blank non-comment lines of non-test code",
        corpus().len()
    );
    let mut spine = SPINE.to_vec();
    spine.extend(["crates/serve/src/core.rs", "crates/core/src/sigma/diag.rs"]);
    let n = corpus().iter().filter(|l| in_scope(&l.0, &spine)).count();
    println!("    spine: {n} non-blank non-comment lines (two driver files + serve/src/core.rs + sigma/diag.rs)");
    let mut fails = vec![];
    for (scope, needles, want, reason) in ROWS {
        let hit = |(f, _, c): &&Line| in_scope(f, scope) && needles.iter().any(|p| find(c, p));
        let n = corpus().iter().filter(hit).count();
        let what = format!(
            "{}: {n} line(s) in {}",
            needles.join(" | "),
            scope.join(" ")
        );
        println!("    {what}, want {want:?}");
        if !matches!(*want, Is(k) if n == k) && !matches!(*want, AtMost(k) if n <= k) {
            fails.push(format!("{what}: {reason}"));
        }
    }
    // Whether a region is worth a wake-up is bgw-par's decision against one
    // constant. This file names it to look for it.
    let mut floor = rs_files(&["crates", "src", "tests", "examples"]);
    floor.retain(|f| !f.starts_with("crates/par/src/") && f != "tests/structure.rs");
    floor.retain(|f| read(f).contains("MIN_REGION"));
    fails.extend(
        floor
            .iter()
            .map(|f| format!("{f}: names the pool's floor constant")),
    );
    assert!(fails.is_empty(), "FAIL:\n{}", fails.join("\n"));
}

#[test]
fn item_gate_every_pub_item_has_a_caller_that_is_not_a_test() {
    let report = item_gate(corpus(), ALLOW);
    report.iter().for_each(|l| println!("    {l}"));
    let bad: Vec<_> = report.iter().filter(|l| !l.starts_with("kept")).collect();
    let orphans = bad.iter().filter(|l| l.starts_with("ORPHAN")).count();
    println!("    orphan pub items: {orphans}");
    let why = "delete the orphan with the tests that exercise only it (git keeps it), move a reference implementation into its test module, or allowlist it with a reason";
    assert!(bad.is_empty(), "FAIL: {why}:\n{bad:#?}");
}

#[test]
fn lexer_cuts_comments_and_empties_literals() {
    let src = "let a = \"x // y\"; // tail\n/* a /* b */ c */ let r = r#\"q\"# ;\n/// doc\nlet b = br\"z\" + b\"w\\\"\";\nfn f<'a>(x: &'a u8) -> char { '\\'' } let c = '{';\nlet s = \"multi\nline\"; /** d */\n";
    let want = [
        (1, "let a = \"\";"),
        (2, " let r = \"\" ;"),
        (4, "let b = b\"\" + b\"\";"),
        (5, "fn f<'a>(x: &'a u8) -> char { ' ' } let c = ' ';"),
        (6, "let s = \""),
        (7, "\";"),
    ];
    let got: Vec<_> = lex("f.rs", src).into_iter().map(|l| (l.1, l.2)).collect();
    assert_eq!(got, want.map(|(n, l)| (n, l.to_string())));
}

#[test]
fn lexer_cuts_exactly_the_cfg_test_item_and_re_exports() {
    let src = "fn live() {}\n    #[cfg(test)]\n    fn helper() { if x { y } }\n#[cfg(test)] fn one() {} fn after() {}\n#[cfg(test)] const X: S = S { a: [1; 2] };\n#[cfg(test)]\nuse a::{b, c};\npub mod m;\npub use x::{\n    y,\n};\nstruct S { #[cfg(test)] f: u8 }\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn tail() {}\n";
    let got = lex("f.rs", src);
    assert_eq!(got.iter().map(|l| l.1).collect::<Vec<_>>(), [1, 4, 12, 17]);
    assert_eq!(got[1].2.trim(), "fn after() {}");
    assert_eq!(got[2].2.split_whitespace().collect::<String>(), "structS{}");
}

#[test]
fn matchers_and_item_headers() {
    assert!(find("x(Flops(1_000))", "Flops(#)") && !find("Flops(6 * n)", "Flops(#)"));
    assert!(find("[e - d, e, e + d_x]", "e - @, e, e + @"));
    assert!(!find("[e - 1, e, e + 1]", "e - @, e, e + @"));
    let items = "pub const fn f()|pub const N: u8|pub static mut G: u8|pub(crate) fn g()|pub unsafe fn u<T>()";
    let items: Vec<_> = items.split('|').map(pub_item).collect();
    let want = [("fn", "f"), ("const", "N"), ("static", "G")];
    assert_eq!(items[..3], want.map(Some));
    assert_eq!(items[3..], [None, Some(("fn", "u"))]);
    let impls =
        "impl<T: Into<U>> Tr for &dyn a::Ty<T> {|unsafe impl Send for Pool {|impl Foo {|implement";
    let impls: Vec<_> = impls.split('|').map(impl_type).collect();
    assert_eq!(impls, [Some("Ty"), Some("Pool"), Some("Foo"), None]);
}

#[test]
fn item_gate_sees_impls_test_items_and_stale_lines() {
    let src = "pub struct Own;\nimpl Own {\n    pub fn new() -> Own { Own }\n    #[cfg(test)]\n    fn only_test() { live() }\n}\npub fn live() {}\n#[cfg(test)]\nfn helper() {}\npub fn called() {}\nfn user() { called() }\n";
    let file = "crates/x/src/lib.rs";
    let allow = [(file, "Own::*", "why"), (file, "gone", "why")];
    let want = [
        "ORPHAN: crates/x/src/lib.rs Own",
        "kept without a caller: crates/x/src/lib.rs Own::new: why",
        "ORPHAN: crates/x/src/lib.rs live",
        "stale allowlist line: crates/x/src/lib.rs gone",
    ];
    assert_eq!(item_gate(&lex(file, src), &allow), want);
}

#[test]
fn item_gate_sees_a_method_past_its_same_named_field() {
    let src = "pub struct Core { events: Vec<u8> }\nimpl Core {\n    pub fn events(&self) -> &[u8] { &self.events }\n    pub fn take(&mut self) -> Vec<u8> { std::mem::take(&mut self.events) }\n}\nfn user(c: &mut Core) -> usize { c.take().len() }\n";
    let file = "crates/x/src/lib.rs";
    let want = ["ORPHAN: crates/x/src/lib.rs Core::events"];
    assert_eq!(item_gate(&lex(file, src), &[]), want);
}

#[test]
fn item_gate_sees_a_method_past_a_field_of_another_type() {
    let src = "pub struct Matrix;\nimpl Matrix {\n    pub fn trace(&self) -> f64 { 0.0 }\n    pub fn norm(&self) -> f64 { 1.0 }\n}\npub struct Spec { pub trace: bool }\nfn user(m: &[Matrix], spec: Spec) -> bool { m.iter().map(Matrix::norm).count() > 0 && spec.trace }\n";
    let file = "crates/x/src/lib.rs";
    let want = ["ORPHAN: crates/x/src/lib.rs Matrix::trace"];
    assert_eq!(item_gate(&lex(file, src), &[]), want);
}

#[test]
fn item_gate_sees_a_method_past_a_field_of_a_std_type() {
    let src = "pub struct Stats;\nimpl Stats {\n    pub fn stderr(&self) -> f64 { 0.0 }\n    pub fn mean(&self) -> f64 { 0.0 }\n}\nfn user(s: &Stats, out: std::process::Output) -> f64 {\n    out.stderr.len() as f64 + s\n        .mean()\n}\n";
    let file = "crates/x/src/lib.rs";
    let want = ["ORPHAN: crates/x/src/lib.rs Stats::stderr"];
    assert_eq!(item_gate(&lex(file, src), &[]), want);
}
