//! Random well-formed [`ProblemSpec`] generation and a naive reference
//! interpreter — the substrate of the differential spec fuzzer.
//!
//! The paper's generator claims to accept *arbitrary* inputs: any system
//! of linear inequalities, any constant template vectors, any ordering and
//! tile widths (Section IV-A). This module makes that claim testable in
//! the style of Csmith-like compiler fuzzing: [`SpecGen`] draws random
//! specs from that input space, and [`reference_eval`] computes the
//! recurrence directly over the enumerated lattice points, with none of
//! the pipeline's machinery (no loop-nest synthesis, no tiling, no
//! scheduler). Disagreement between the two is a bug by construction.
//!
//! **Well-formedness by construction.** Per dimension the generator first
//! picks a dependence sign and then samples all template components with
//! that sign, so no template set ever mixes signs in one dimension — the
//! invariant `TemplateSet` enforces, and the reason the dependence
//! relation is acyclic and consistent with *every* loop ordering: along a
//! dependency `x → x + r`, the flow-adjusted coordinate sum (negated for
//! descending dimensions) strictly decreases. The naive interpreter
//! evaluates points in ascending adjusted-sum order, which therefore
//! respects all dependencies without consulting the loop nest at all.
//!
//! **Determinism.** Everything is keyed by a single `u64` seed through the
//! shared [`SplitMix64`] stream. [`try_from_seed`] is a pure function; the
//! fuzz value of a cell ([`fuzz_cell_value`]) is a `u64` mixing function
//! (wrapping arithmetic, no floating point), so every executor must agree
//! *bit-identically* regardless of execution order.

use crate::spec::{ProblemSpec, SpecBand, SpecTemplate};
use dpgen_polyhedra::{probe_box, BoxProbe};
use dpgen_runtime::SplitMix64;
use dpgen_tiling::tiling::CellRef;
use dpgen_tiling::Direction;
use std::collections::HashMap;

/// Upper bound on the over-approximating bounding-box volume a generated
/// spec may have (keeps naive enumeration cheap).
pub const MAX_BOX_POINTS: u128 = 4096;
/// Upper bound on actual lattice points per generated spec.
pub const MAX_CELLS: usize = 1500;

/// A generated problem: the spec, the concrete parameter value to run it
/// at, and the seed that reproduces it via [`try_from_seed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedSpec {
    /// The well-formed problem description (fuzz center code attached).
    pub spec: ProblemSpec,
    /// Concrete value for the single parameter `N`.
    pub param: i64,
    /// The exact seed that regenerates this spec.
    pub seed: u64,
}

/// A seeded stream of well-formed generated specs.
pub struct SpecGen {
    seed: u64,
    attempt: u64,
}

impl SpecGen {
    /// Start the stream at `seed`; equal seeds yield equal spec sequences.
    pub fn new(seed: u64) -> SpecGen {
        SpecGen { seed, attempt: 0 }
    }

    /// The next well-formed spec (rejection-samples internally; every
    /// returned spec has a nonempty, bounded iteration space, a valid
    /// template set, and a buildable tiling).
    pub fn next_spec(&mut self) -> GeneratedSpec {
        loop {
            self.attempt += 1;
            let attempt_seed = SplitMix64::new(self.seed).fork(self.attempt).next_u64();
            if let Some(gs) = try_from_seed(attempt_seed) {
                return gs;
            }
        }
    }
}

/// Deterministically derive a spec from `seed`, or `None` when this seed's
/// draw is rejected (empty/unbounded/oversized space, degenerate
/// templates, tiling failure). [`SpecGen`] retries; corpus replay calls
/// this directly with a known-good seed.
pub fn try_from_seed(seed: u64) -> Option<GeneratedSpec> {
    let mut rng = SplitMix64::new(seed);
    let dims = rng.next_range(1, 3) as usize;
    let param = rng.next_range(4, 12);
    let vars: Vec<String> = (0..dims).map(|k| format!("x{k}")).collect();

    // Per-dimension bounds; upper (and occasionally lower) bounds may
    // reference the parameter so the space scales with `N`.
    let mut constraints = Vec::new();
    for k in 0..dims {
        if rng.next_f64() < 0.2 {
            let m = rng.next_range(1, 4);
            constraints.push(format!("x{k} >= N - {m}"));
        } else {
            constraints.push(format!("x{k} >= {}", rng.next_range(-2, 2)));
        }
        if rng.next_f64() < 0.5 {
            let m = rng.next_range(0, 2);
            if m == 0 {
                constraints.push(format!("x{k} <= N"));
            } else {
                constraints.push(format!("x{k} <= N - {m}"));
            }
        } else {
            constraints.push(format!("x{k} <= {}", rng.next_range(0, 6)));
        }
    }
    // Cross-dimension constraints (the triangles/simplices/bands of the
    // paper's workloads, at random).
    for _ in 0..rng.next_below(3) {
        let coeffs: Vec<i64> = (0..dims).map(|_| rng.next_range(-2, 2)).collect();
        if coeffs.iter().all(|&c| c == 0) {
            continue;
        }
        let b = rng.next_range(-4, 8);
        let with_param = rng.next_f64() < 0.5;
        constraints.push(format!(
            "{} <= {}",
            affine_text(&coeffs),
            rhs_text(b, with_param)
        ));
    }

    // Templates: fix a sign per dimension first (dependence-order
    // consistency by construction), then sample magnitudes.
    let signs: Vec<i64> = (0..dims)
        .map(|_| if rng.next_f64() < 0.5 { 1 } else { -1 })
        .collect();
    let ntemplates = if rng.next_f64() < 0.1 {
        0 // independent cells: a legal degenerate case worth covering
    } else {
        rng.next_range(1, 3) as usize
    };
    let mut templates: Vec<SpecTemplate> = Vec::new();
    for _ in 0..ntemplates {
        let mut offsets = vec![0i64; dims];
        for (k, o) in offsets.iter_mut().enumerate() {
            *o = signs[k] * rng.next_range(0, 2);
        }
        if offsets.iter().all(|&o| o == 0) {
            // A zero vector would be rejected by TemplateSet; nudge one
            // dimension (with its fixed sign) instead of wasting the
            // attempt.
            let k = rng.next_below(dims as u64) as usize;
            offsets[k] = signs[k];
        }
        if templates.iter().any(|t| t.offsets == offsets) {
            continue;
        }
        let name = format!("r{}", templates.len() + 1);
        templates.push(SpecTemplate { name, offsets });
    }

    let order = if rng.next_f64() < 0.5 {
        Vec::new()
    } else {
        let mut names = vars.clone();
        rng.shuffle(&mut names);
        names
    };
    let lb_count = rng.next_below(dims as u64 + 1) as usize;
    let load_balance = {
        let mut names = vars.clone();
        rng.shuffle(&mut names);
        names.truncate(lb_count);
        names
    };
    let widths: Vec<i64> = (0..dims).map(|_| rng.next_range(1, 5)).collect();

    // Sparse diagonal bands (drawn last so band-free seeds keep the exact
    // spec earlier generator versions produced). `lo <= x_a - x_b <= hi`
    // masks the lattice through `system()` everywhere — reference
    // interpreter, admission, tiling — with no further plumbing.
    let band = if dims >= 2 && rng.next_f64() < 0.25 {
        let a = rng.next_below(dims as u64) as usize;
        let b = (a + 1 + rng.next_below(dims as u64 - 1) as usize) % dims;
        let lo = rng.next_range(-3, 0);
        let hi = rng.next_range(0, 3);
        Some(SpecBand {
            a: format!("x{a}"),
            b: format!("x{b}"),
            lo,
            hi,
        })
    } else {
        None
    };

    let mut spec = ProblemSpec {
        name: format!("fuzz_{seed:016x}"),
        vars,
        params: vec!["N".to_string()],
        constraints,
        templates,
        order,
        load_balance,
        widths,
        band,
        ..ProblemSpec::default()
    };
    attach_fuzz_code(&mut spec);

    admit(spec, param, seed)
}

/// Admission filter: the spec must validate, its space must be nonempty
/// and bounded at `param` with a small enumeration, and the tiling must
/// build. Returns the finished [`GeneratedSpec`] or `None`.
fn admit(spec: ProblemSpec, param: i64, seed: u64) -> Option<GeneratedSpec> {
    spec.validate().ok()?;
    let sys = spec.system().ok()?;
    let mut assignment = vec![0i128; sys.space().dim()];
    assignment[sys.space().param_indices()[0]] = param as i128;
    let ranges = match probe_box(&sys, &assignment).ok()? {
        BoxProbe::Bounded(r) => r,
        BoxProbe::Empty | BoxProbe::Unbounded => return None,
    };
    let volume: u128 = ranges
        .iter()
        .map(|(lo, hi)| (hi - lo + 1) as u128)
        .product();
    if volume == 0 || volume > MAX_BOX_POINTS {
        return None;
    }
    spec.template_set().ok()?;
    spec.tiling().ok()?;
    let points = lattice_points(&spec, param).ok()?;
    if points.is_empty() || points.len() > MAX_CELLS {
        return None;
    }
    Some(GeneratedSpec { spec, param, seed })
}

/// Format `sum(coeffs[k] * x{k})` in the spec parser's text syntax.
fn affine_text(coeffs: &[i64]) -> String {
    let mut out = String::new();
    for (k, &c) in coeffs.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if out.is_empty() {
            match c {
                1 => out.push_str(&format!("x{k}")),
                _ => out.push_str(&format!("{c}*x{k}")),
            }
        } else if c > 0 {
            out.push_str(&format!(" + {c}*x{k}"));
        } else {
            out.push_str(&format!(" - {}*x{k}", -c));
        }
    }
    out
}

/// Format `b` or `N + b` / `N - |b|` for a constraint right-hand side.
fn rhs_text(b: i64, with_param: bool) -> String {
    if !with_param {
        return format!("{b}");
    }
    match b {
        0 => "N".to_string(),
        b if b > 0 => format!("N + {b}"),
        b => format!("N - {}", -b),
    }
}

// The fuzz recurrence's constants. `fuzz_mix` computes with them and
// `attach_fuzz_code` renders them into C, so the emitted program computes
// the Rust function's bits. Each coordinate is multiplied by
// `FUZZ_COORD_MUL` and mixed in; each dependency's value plus
// `FUZZ_DEP_ADD` is mixed in, or `fuzz_missing(j)` when template `j`'s
// dependency lies outside the space. After each, the state is rotated left
// and multiplied.
const FUZZ_SEED: u64 = 0x243F_6A88_85A3_08D3;
const FUZZ_COORD_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
const FUZZ_COORD_ROT: u32 = 23;
const FUZZ_COORD_ROT_MUL: u64 = 0xBF58_476D_1CE4_E5B9;
const FUZZ_DEP_ADD: u64 = 0x94D0_49BB_1331_11EB;
const FUZZ_MISSING_MUL: u64 = 0xFF51_AFD7_ED55_8CCD;
const FUZZ_MISSING_XOR: u64 = 0x5851_F42D_4C95_7F2D;
const FUZZ_DEP_ROT: u32 = 17;
const FUZZ_DEP_ROT_MUL: u64 = 0x2545_F491_4F6C_DD1D;

/// What template `j` mixes in when its dependency lies outside the space.
fn fuzz_missing(j: usize) -> u64 {
    (j as u64).wrapping_mul(FUZZ_MISSING_MUL) ^ FUZZ_MISSING_XOR
}

/// Fill in center code computing [`fuzz_cell_value`] in C, so generated
/// specs round-trip through `emit_c` like hand-written ones and the
/// emitted program's values are the fuzz kernel's bits.
pub fn attach_fuzz_code(spec: &mut ProblemSpec) {
    spec.value_type = "unsigned long long".to_string();
    spec.defines = String::new();
    spec.init_code = String::new();
    let rotate = |r: u32, mul: u64| format!("h = ((h << {r}) | (h >> {})) * {mul}ULL;\n", 64 - r);
    let mut code = format!("unsigned long long h = {FUZZ_SEED}ULL;\n");
    for v in &spec.vars {
        code.push_str(&format!(
            "h ^= (unsigned long long)({v}) * {FUZZ_COORD_MUL}ULL;\n"
        ));
        code.push_str(&rotate(FUZZ_COORD_ROT, FUZZ_COORD_ROT_MUL));
    }
    for (j, t) in spec.templates.iter().enumerate() {
        code.push_str(&format!(
            "h ^= is_valid_{0} ? V[loc_{0}] + {FUZZ_DEP_ADD}ULL : {1}ULL;\n",
            t.name,
            fuzz_missing(j)
        ));
        code.push_str(&rotate(FUZZ_DEP_ROT, FUZZ_DEP_ROT_MUL));
    }
    code.push_str("V[loc] = h;\n");
    spec.center_code = code;
}

/// The deterministic fuzz recurrence: a `u64` mixing function of the
/// cell's coordinates and its dependency values (`None` = the dependency
/// lies outside the iteration space). Pure wrapping integer arithmetic —
/// every execution order yields the same bits, so differential comparison
/// is exact equality.
pub fn fuzz_cell_value(x: &[i64], deps: &[Option<u64>]) -> u64 {
    fuzz_mix(x, deps.iter().copied())
}

/// [`fuzz_cell_value`] over dependencies as they are read, so the kernel
/// collects nothing per cell.
fn fuzz_mix(x: &[i64], deps: impl Iterator<Item = Option<u64>>) -> u64 {
    let mut h = FUZZ_SEED;
    for &c in x {
        h ^= (c as u64).wrapping_mul(FUZZ_COORD_MUL);
        h = h
            .rotate_left(FUZZ_COORD_ROT)
            .wrapping_mul(FUZZ_COORD_ROT_MUL);
    }
    for (j, d) in deps.enumerate() {
        h ^= match d {
            Some(v) => v.wrapping_add(FUZZ_DEP_ADD),
            None => fuzz_missing(j),
        };
        h = h.rotate_left(FUZZ_DEP_ROT).wrapping_mul(FUZZ_DEP_ROT_MUL);
    }
    h
}

/// A runtime [`dpgen_runtime::Kernel`] computing [`fuzz_cell_value`] for a
/// problem with `ntemplates` template vectors.
pub fn fuzz_kernel(ntemplates: usize) -> impl Fn(CellRef<'_>, &mut [u64]) + Send + Sync {
    move |cell: CellRef<'_>, values: &mut [u64]| {
        let deps = (0..ntemplates).map(|j| cell.valid[j].then(|| values[cell.loc_r(j)]));
        let v = fuzz_mix(cell.x, deps);
        values[cell.loc] = v;
    }
}

/// Every lattice point of the spec's iteration space at `param`, sorted in
/// dependency order (ascending flow-adjusted coordinate sum, then
/// lexicographic on adjusted coordinates for determinism).
pub fn lattice_points(spec: &ProblemSpec, param: i64) -> Result<Vec<Vec<i64>>, String> {
    let sys = spec.system().map_err(|e| e.to_string())?;
    let space = sys.space().clone();
    let var_idx = space.var_indices();
    let mut assignment = vec![0i128; space.dim()];
    let params = space.param_indices();
    if params.len() != 1 {
        return Err(format!("expected 1 parameter, got {}", params.len()));
    }
    assignment[params[0]] = param as i128;
    let ranges = match probe_box(&sys, &assignment).map_err(|e| e.to_string())? {
        BoxProbe::Bounded(r) => r,
        BoxProbe::Empty => return Ok(Vec::new()),
        BoxProbe::Unbounded => return Err("iteration space is unbounded".into()),
    };
    let volume: u128 = ranges
        .iter()
        .map(|(lo, hi)| (hi - lo + 1).max(0) as u128)
        .product();
    if volume > MAX_BOX_POINTS {
        return Err(format!("bounding box too large: {volume} points"));
    }

    let directions = spec
        .template_set()
        .map_err(|e| e.to_string())?
        .directions()
        .to_vec();
    let adj = |x: &[i64]| -> Vec<i64> {
        x.iter()
            .enumerate()
            .map(|(k, &v)| match directions[k] {
                Direction::Descending => -v,
                Direction::Ascending => v,
            })
            .collect()
    };

    let mut points = Vec::new();
    let mut cursor: Vec<i128> = ranges.iter().map(|&(lo, _)| lo).collect();
    'outer: loop {
        let mut full = assignment.clone();
        for (k, &v) in cursor.iter().enumerate() {
            full[var_idx[k]] = v;
        }
        if sys.contains(&full).map_err(|e| e.to_string())? {
            points.push(cursor.iter().map(|&v| v as i64).collect::<Vec<i64>>());
        }
        for k in (0..cursor.len()).rev() {
            cursor[k] += 1;
            if cursor[k] <= ranges[k].1 {
                continue 'outer;
            }
            cursor[k] = ranges[k].0;
        }
        break;
    }
    points.sort_by_key(|x| {
        let a = adj(x);
        (a.iter().sum::<i64>(), a)
    });
    Ok(points)
}

/// The naive reference result: every cell's value, computed directly from
/// the recurrence over the enumerated lattice points.
#[derive(Debug, Clone)]
pub struct NaiveReference {
    /// All lattice points, in the dependency (evaluation) order.
    pub points: Vec<Vec<i64>>,
    /// Cell values keyed by global coordinates.
    pub values: HashMap<Vec<i64>, u64>,
}

/// Evaluate the fuzz recurrence naively: enumerate the lattice points,
/// topologically order them by flow-adjusted coordinate sum, and apply
/// [`fuzz_cell_value`] with dependency validity = set membership — the
/// same semantics the runtime's `valid` flags encode.
pub fn reference_eval(spec: &ProblemSpec, param: i64) -> Result<NaiveReference, String> {
    let points = lattice_points(spec, param)?;
    let offsets: Vec<Vec<i64>> = spec.templates.iter().map(|t| t.offsets.clone()).collect();
    let mut values: HashMap<Vec<i64>, u64> = HashMap::with_capacity(points.len());
    for x in &points {
        let deps: Vec<Option<u64>> = offsets
            .iter()
            .map(|r| {
                let dep: Vec<i64> = x.iter().zip(r).map(|(a, b)| a + b).collect();
                values.get(&dep).copied()
            })
            .collect();
        values.insert(x.clone(), fuzz_cell_value(x, &deps));
    }
    Ok(NaiveReference { points, values })
}

/// Serialize a generated spec as pretty JSON for `tests/corpus/`. The seed
/// is stored as a hex *string*: the JSON shim parses numbers as `f64` and
/// would silently lose `u64` precision past 2^53.
pub fn to_json(gs: &GeneratedSpec) -> String {
    let spec = &gs.spec;
    let strings = |xs: &[String]| -> String {
        let quoted: Vec<String> = xs.iter().map(|s| json_string(s)).collect();
        format!("[{}]", quoted.join(", "))
    };
    let numbers = |xs: &[i64]| -> String {
        let items: Vec<String> = xs.iter().map(|n| n.to_string()).collect();
        format!("[{}]", items.join(", "))
    };
    let templates: Vec<String> = spec
        .templates
        .iter()
        .map(|t| {
            format!(
                "{{\"name\": {}, \"offsets\": {}}}",
                json_string(&t.name),
                numbers(&t.offsets)
            )
        })
        .collect();
    // The band entry is omitted for dense specs, so older corpus files
    // and band-free specs serialize byte-identically to before.
    let band = match &spec.band {
        Some(b) => format!(
            ",\n  \"band\": {{\"a\": {}, \"b\": {}, \"lo\": {}, \"hi\": {}}}",
            json_string(&b.a),
            json_string(&b.b),
            b.lo,
            b.hi
        ),
        None => String::new(),
    };
    format!(
        "{{\n  \"name\": {},\n  \"seed\": \"{:016x}\",\n  \"param\": {},\n  \
         \"vars\": {},\n  \"params\": {},\n  \"constraints\": {},\n  \
         \"templates\": [{}],\n  \"order\": {},\n  \"load_balance\": {},\n  \
         \"widths\": {}{}\n}}\n",
        json_string(&spec.name),
        gs.seed,
        gs.param,
        strings(&spec.vars),
        strings(&spec.params),
        strings(&spec.constraints),
        templates.join(", "),
        strings(&spec.order),
        strings(&spec.load_balance),
        numbers(&spec.widths),
        band,
    )
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Load a generated spec back from its corpus JSON (fuzz code is
/// re-attached, so the loaded spec is ready for both the runtime and
/// `emit_c`).
pub fn from_json(text: &str) -> Result<GeneratedSpec, String> {
    let v = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let field = |name: &str| -> Result<&serde_json::Value, String> {
        v.get(name).ok_or_else(|| format!("missing field `{name}`"))
    };
    let string_list = |name: &str| -> Result<Vec<String>, String> {
        field(name)?
            .as_array()
            .ok_or_else(|| format!("`{name}` must be an array"))?
            .iter()
            .map(|s| {
                s.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("`{name}` entries must be strings"))
            })
            .collect()
    };
    let number_list = |name: &str, arr: &serde_json::Value| -> Result<Vec<i64>, String> {
        arr.as_array()
            .ok_or_else(|| format!("`{name}` must be an array"))?
            .iter()
            .map(|n| {
                n.as_i64()
                    .ok_or_else(|| format!("`{name}` entries must be integers"))
            })
            .collect()
    };

    let seed_text = field("seed")?
        .as_str()
        .ok_or("`seed` must be a hex string")?;
    let seed = u64::from_str_radix(seed_text, 16).map_err(|e| format!("bad seed: {e}"))?;
    let param = field("param")?
        .as_i64()
        .ok_or("`param` must be an integer")?;
    let mut templates = Vec::new();
    for t in field("templates")?
        .as_array()
        .ok_or("`templates` must be an array")?
    {
        let name = t
            .get("name")
            .and_then(|n| n.as_str())
            .ok_or("template `name` must be a string")?
            .to_string();
        let offsets = number_list(
            "offsets",
            t.get("offsets").ok_or("template missing `offsets`")?,
        )?;
        templates.push(SpecTemplate { name, offsets });
    }

    // Optional band (absent in dense and pre-band corpus files).
    let band = match v.get("band") {
        None | Some(serde_json::Value::Null) => None,
        Some(b) => {
            let s = |name: &str| -> Result<String, String> {
                b.get(name)
                    .and_then(|x| x.as_str())
                    .map(str::to_string)
                    .ok_or_else(|| format!("band `{name}` must be a string"))
            };
            let n = |name: &str| -> Result<i64, String> {
                b.get(name)
                    .and_then(|x| x.as_i64())
                    .ok_or_else(|| format!("band `{name}` must be an integer"))
            };
            Some(SpecBand {
                a: s("a")?,
                b: s("b")?,
                lo: n("lo")?,
                hi: n("hi")?,
            })
        }
    };

    let mut spec = ProblemSpec {
        name: field("name")?
            .as_str()
            .ok_or("`name` must be a string")?
            .to_string(),
        vars: string_list("vars")?,
        params: string_list("params")?,
        constraints: string_list("constraints")?,
        templates,
        order: string_list("order")?,
        load_balance: string_list("load_balance")?,
        widths: number_list("widths", field("widths")?)?,
        band,
        ..ProblemSpec::default()
    };
    attach_fuzz_code(&mut spec);
    spec.validate().map_err(|e| e.to_string())?;
    Ok(GeneratedSpec { spec, param, seed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpgen_runtime::run_reference;

    #[test]
    fn generation_is_deterministic() {
        let mut a = SpecGen::new(1234);
        let mut b = SpecGen::new(1234);
        for _ in 0..5 {
            let ga = a.next_spec();
            let gb = b.next_spec();
            assert_eq!(ga.spec, gb.spec);
            assert_eq!(ga.param, gb.param);
            assert_eq!(ga.seed, gb.seed);
            assert_eq!(try_from_seed(ga.seed).unwrap().spec, ga.spec);
        }
    }

    #[test]
    fn generated_specs_are_well_formed_and_small() {
        let mut gen = SpecGen::new(7);
        for _ in 0..20 {
            let gs = gen.next_spec();
            gs.spec.validate().unwrap();
            gs.spec.template_set().unwrap();
            gs.spec.tiling().unwrap();
            let points = lattice_points(&gs.spec, gs.param).unwrap();
            assert!(!points.is_empty() && points.len() <= MAX_CELLS);
        }
    }

    #[test]
    fn lattice_order_respects_dependencies() {
        let mut gen = SpecGen::new(42);
        for _ in 0..10 {
            let gs = gen.next_spec();
            let points = lattice_points(&gs.spec, gs.param).unwrap();
            let pos: HashMap<&Vec<i64>, usize> =
                points.iter().enumerate().map(|(i, p)| (p, i)).collect();
            for (i, x) in points.iter().enumerate() {
                for t in &gs.spec.templates {
                    let dep: Vec<i64> = x.iter().zip(&t.offsets).map(|(a, b)| a + b).collect();
                    if let Some(&j) = pos.get(&dep) {
                        assert!(j < i, "dependency {dep:?} of {x:?} evaluated later");
                    }
                }
            }
        }
    }

    #[test]
    fn naive_reference_matches_pipeline_serial_executor() {
        // The first differential check: the naive interpreter against the
        // pipeline's own untiled serial executor.
        let mut gen = SpecGen::new(99);
        for _ in 0..8 {
            let gs = gen.next_spec();
            let reference = reference_eval(&gs.spec, gs.param).unwrap();
            let tiling = gs.spec.tiling().unwrap();
            let kernel = fuzz_kernel(gs.spec.templates.len());
            let dense = run_reference::<u64, _>(&tiling, &[gs.param], &kernel);
            assert_eq!(dense.cells_computed() as usize, reference.points.len());
            for p in &reference.points {
                assert_eq!(
                    dense.get(p),
                    reference.values.get(p).copied(),
                    "cell {p:?} of seed {:016x}",
                    gs.seed
                );
            }
        }
    }

    #[test]
    fn json_round_trips() {
        let mut gen = SpecGen::new(2024);
        for _ in 0..5 {
            let gs = gen.next_spec();
            let text = to_json(&gs);
            let back = from_json(&text).unwrap();
            assert_eq!(back.spec, gs.spec);
            assert_eq!(back.param, gs.param);
            assert_eq!(back.seed, gs.seed);
        }
    }

    #[test]
    fn banded_specs_generate_validate_and_round_trip() {
        // Scan seeds until the generator emits a banded spec, then check
        // the full path: validation, tiling admission of the band, the
        // naive reference over the band-clipped lattice, and JSON.
        let mut gen = SpecGen::new(0);
        let gs = loop {
            let gs = gen.next_spec();
            if gs.spec.band.is_some() {
                break gs;
            }
        };
        gs.spec.validate().unwrap();
        let tiling = gs.spec.tiling().unwrap();
        assert!(matches!(
            tiling.shape(),
            dpgen_tiling::TileShape::Banded { .. }
        ));
        let points = lattice_points(&gs.spec, gs.param).unwrap();
        let band = gs.spec.band.as_ref().unwrap();
        let (a, b, _, _) = gs.spec.band_indices().unwrap();
        for p in &points {
            let d = p[a] - p[b];
            assert!(
                band.lo <= d && d <= band.hi,
                "lattice point {p:?} escapes band {band:?}"
            );
        }
        let text = to_json(&gs);
        assert!(text.contains("\"band\""));
        let back = from_json(&text).unwrap();
        assert_eq!(back.spec, gs.spec);
        assert_eq!(back.spec.band, gs.spec.band);
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        assert!(from_json("{").is_err());
        assert!(from_json("{}").is_err());
        assert!(from_json("{\"name\": \"x\"}").is_err());
        // Bad seed encoding.
        let gs = SpecGen::new(5).next_spec();
        let text = to_json(&gs).replace(&format!("{:016x}", gs.seed), "zz");
        assert!(from_json(&text).is_err());
    }

    #[test]
    fn fuzz_code_is_brace_balanced() {
        let mut gen = SpecGen::new(31);
        for _ in 0..5 {
            let gs = gen.next_spec();
            for text in [&gs.spec.center_code, &gs.spec.init_code, &gs.spec.defines] {
                let open = text.matches('{').count();
                let close = text.matches('}').count();
                assert_eq!(open, close, "unbalanced braces in {text}");
            }
        }
    }
}
