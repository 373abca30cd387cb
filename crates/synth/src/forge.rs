//! The generator: [`SynthConfig`] → [`ForgedSuite`].
//!
//! Programs are assembled as ASTs through `diode_lang::build`, so every
//! forged scenario is well-formed by construction; the matching seed and
//! [`FormatDesc`] are built together through [`SeedBuilder`], so field
//! offsets in the program and the format can never drift apart.

use diode_engine::CampaignApp;
use diode_format::{FormatDesc, SeedBuilder};
use diode_lang::build::{exp, ProgramBuilder};
use diode_lang::{Aexp, Block, ProcId, Program, Stmt, Symbol};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::config::{ShapeClass, SynthConfig, WidthClass};
use crate::oracle::{AppOracle, GroundTruth, PlantedSite, SynthOracle};

/// First size value that no longer fits the 32-bit allocation argument.
const OVERFLOW: u128 = 1 << 32;
/// The interpreter's single-allocation limit; seed-time sizes stay below
/// it so every seed run allocates successfully.
const ALLOC_LIMIT: u128 = 1 << 31;
/// Length of the (unnamed) magic prefix before the field region.
const MAGIC_LEN: u32 = 4;

/// A forged benchmark suite: campaign-ready workloads plus the
/// by-construction ground truth for every planted site.
#[derive(Debug)]
pub struct ForgedSuite {
    /// One campaign workload per forged application.
    pub apps: Vec<CampaignApp>,
    /// Ground truth for every planted site.
    pub oracle: SynthOracle,
}

impl ForgedSuite {
    /// Fresh campaign workloads (cloned, so the suite can be run several
    /// times — e.g. once on all cores and once on one worker).
    #[must_use]
    pub fn campaign_apps(&self) -> Vec<CampaignApp> {
        self.apps.clone()
    }

    /// Total planted sites across the suite.
    #[must_use]
    pub fn total_sites(&self) -> usize {
        self.oracle.total_sites()
    }
}

impl diode_engine::CorpusSuite for ForgedSuite {
    fn campaign_apps(&self) -> Vec<CampaignApp> {
        ForgedSuite::campaign_apps(self)
    }
}

/// Concrete size arithmetic of one planted site.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `v * c`
    MulConst(u64),
    /// `v + c`
    AddConst(u64),
    /// `(v1 * v2) * c`
    MulFields(u64),
    /// `v << k`
    ShlConst(u32),
    /// `v * c + d`
    MulAddConst(u64, u64),
}

impl Shape {
    fn n_fields(self) -> usize {
        match self {
            Shape::MulFields(_) => 2,
            _ => 1,
        }
    }

    /// The true (unbounded) value of the size computation.
    fn true_size(self, vals: &[u64]) -> u128 {
        let v = u128::from(vals[0]);
        match self {
            Shape::MulConst(c) => v * u128::from(c),
            Shape::AddConst(c) => v + u128::from(c),
            Shape::MulFields(c) => v * u128::from(vals[1]) * u128::from(c),
            Shape::ShlConst(k) => v << k,
            Shape::MulAddConst(c, d) => v * u128::from(c) + u128::from(d),
        }
    }

    /// Smallest driver-field value whose true size reaches 2³², with any
    /// secondary field at `secondary_max`. `None` when `true_size` cannot
    /// reach 2³² for any driver value (shape-dependent callers check the
    /// field max separately).
    fn overflow_threshold(self, secondary_max: u64) -> u64 {
        let div_ceil = |a: u128, b: u128| u64::try_from(a.div_ceil(b)).unwrap_or(u64::MAX);
        match self {
            Shape::MulConst(c) => div_ceil(OVERFLOW, u128::from(c)),
            Shape::AddConst(c) => u64::try_from(OVERFLOW - u128::from(c)).expect("c < 2^32"),
            Shape::MulFields(c) => div_ceil(OVERFLOW, u128::from(c) * u128::from(secondary_max)),
            Shape::ShlConst(k) => 1u64 << (32 - k),
            Shape::MulAddConst(c, d) => div_ceil(OVERFLOW - u128::from(d), u128::from(c)),
        }
    }

    fn describe(self) -> String {
        match self {
            Shape::MulConst(c) => format!("v * {c}"),
            Shape::AddConst(c) => format!("v + {c}"),
            Shape::MulFields(c) => format!("(v1 * v2) * {c}"),
            Shape::ShlConst(k) => format!("v << {k}"),
            Shape::MulAddConst(c, d) => format!("v * {c} + {d}"),
        }
    }
}

/// One planted field: width class, absolute input offset, format path.
#[derive(Debug, Clone)]
struct FieldSpec {
    width: WidthClass,
    offset: u32,
    path: String,
}

/// Everything decided about one planted site before code generation.
#[derive(Debug)]
struct SitePlan {
    class: GroundTruth,
    shape: Shape,
    fields: Vec<FieldSpec>,
    /// Guard limits on the driver field (`if v > L { error }` each).
    guards: Vec<u64>,
    blocking: bool,
    site: String,
}

impl SitePlan {
    /// The largest driver-field value every guard accepts.
    fn allowed_max(&self) -> u64 {
        self.guards
            .iter()
            .copied()
            .min()
            .unwrap_or_else(|| self.fields[0].width.field_max())
    }
}

/// Draws uniformly from the inclusive range `[lo, hi]`.
fn draw(rng: &mut StdRng, lo: u64, hi: u64) -> u64 {
    if lo >= hi {
        lo
    } else {
        rng.gen_range(lo..hi + 1)
    }
}

/// Picks a shape and field widths realizing the intended class.
///
/// For [`GroundTruth::TargetUnsat`] the parameters are chosen so the
/// static bound analysis of `overflow_condition` discharges *every*
/// overflow atom (β folds to `false`); for the other classes they are
/// chosen so an in-range driver value overflows.
fn pick_shape(rng: &mut StdRng, cfg: &SynthConfig, class: GroundTruth) -> (Shape, Vec<WidthClass>) {
    let shape_class = cfg.shapes[rng.gen_range(0..cfg.shapes.len())];
    let w = cfg.widths[rng.gen_range(0..cfg.widths.len())];
    let overflowable = class != GroundTruth::TargetUnsat;
    match shape_class {
        ShapeClass::MulConst => {
            if overflowable {
                let c = match w.bytes() {
                    1 => draw(rng, 1 << 25, (1 << 31) - 8193),
                    2 => draw(rng, 1 << 17, 1 << 24),
                    _ => draw(rng, 2, 65536),
                };
                (Shape::MulConst(c), vec![w])
            } else {
                // field_max * c ≤ 2³²−1 for both u8 and u16 fields.
                (Shape::MulConst(draw(rng, 2, 65536)), vec![w.narrowed()])
            }
        }
        ShapeClass::AddConst => {
            if overflowable {
                (Shape::AddConst(draw(rng, 2, 65536)), vec![w.widened()])
            } else {
                (Shape::AddConst(draw(rng, 2, 4096)), vec![w.narrowed()])
            }
        }
        ShapeClass::MulFields => {
            let narrow = w.narrowed();
            if overflowable {
                let c = match narrow.bytes() {
                    1 => draw(rng, 1 << 18, 1 << 24),
                    _ => draw(rng, 2, 64),
                };
                (Shape::MulFields(c), vec![narrow, narrow])
            } else {
                // u16·u16 peaks at 65535² = 4294836225 < 2³²: the paper's
                // w*h shape is statically safe without the ×4.
                (Shape::MulFields(1), vec![narrow, narrow])
            }
        }
        ShapeClass::ShlConst => {
            if overflowable {
                let k = match w.bytes() {
                    1 => draw(rng, 25, 30),
                    2 => draw(rng, 17, 24),
                    _ => draw(rng, 1, 16),
                };
                (Shape::ShlConst(k as u32), vec![w])
            } else {
                let narrow = w.narrowed();
                let k = match narrow.bytes() {
                    1 => draw(rng, 1, 24),
                    _ => draw(rng, 1, 16),
                };
                (Shape::ShlConst(k as u32), vec![narrow])
            }
        }
        ShapeClass::MulAddConst => {
            if overflowable {
                let (c, d) = match w.bytes() {
                    1 => (draw(rng, 1 << 25, (1 << 31) - 8193), draw(rng, 1, 4096)),
                    2 => (draw(rng, 1 << 17, 1 << 24), draw(rng, 1, 65536)),
                    _ => (draw(rng, 2, 65536), draw(rng, 1, 65536)),
                };
                (Shape::MulAddConst(c, d), vec![w])
            } else {
                // field_max·c + d ≤ 65535·65535 + 4096 < 2³².
                (
                    Shape::MulAddConst(draw(rng, 2, 65535), draw(rng, 1, 4096)),
                    vec![w.narrowed()],
                )
            }
        }
    }
}

/// Plants the guard chain realizing the intended class: the binding guard
/// (minimum limit) decides reachability of the overflow threshold, the
/// rest are looser checks anywhere above it.
fn plan_guards(
    rng: &mut StdRng,
    class: GroundTruth,
    depth: usize,
    threshold: u64,
    field_max: u64,
) -> Vec<u64> {
    let binding = match class {
        GroundTruth::Exposable => {
            if depth == 0 {
                return Vec::new();
            }
            draw(rng, threshold, field_max)
        }
        GroundTruth::GuardPrevented => draw(rng, 1, threshold - 1),
        GroundTruth::TargetUnsat => {
            return (0..depth).map(|_| draw(rng, 8, field_max)).collect();
        }
    };
    let mut guards = vec![binding];
    for _ in 1..depth {
        guards.push(draw(rng, binding, field_max));
    }
    // The binding guard's position in the chain is immaterial; vary it.
    let swap = rng.gen_range(0..guards.len());
    guards.swap(0, swap);
    guards
}

/// Picks a clean seed value for the driver field: passes every guard,
/// never overflows, and keeps the seed-time allocation under the
/// interpreter's limit.
fn seed_value(rng: &mut StdRng, shape: Shape, allowed_max: u64, secondary: &[u64]) -> u64 {
    let cap = allowed_max.clamp(1, 8);
    let mut v = draw(rng, 1, cap);
    loop {
        let mut vals = vec![v];
        vals.extend_from_slice(secondary);
        if shape.true_size(&vals) < ALLOC_LIMIT {
            return v;
        }
        assert!(v > 1, "forge invariant: seed size at v=1 stays under 2^31");
        v /= 2;
    }
}

/// Per-app header layout derived from the site plans.
struct Layout {
    /// Field region length (bytes after the magic).
    hdr_len: u32,
    /// Offset of the CRC-32, when the checksum is on.
    crc_off: Option<u32>,
}

fn assign_offsets(plans: &mut [SitePlan], checksum: bool) -> Layout {
    let mut off = MAGIC_LEN;
    for plan in plans.iter_mut() {
        for field in &mut plan.fields {
            field.offset = off;
            off += field.width.bytes();
        }
    }
    let hdr_len = off - MAGIC_LEN;
    Layout {
        hdr_len,
        crc_off: checksum.then_some(off),
    }
}

/// Emits the field-loader helper procedure for multi-byte widths.
fn define_loader(b: &mut ProgramBuilder, id: ProcId, bytes: u32, big_endian: bool) {
    let p = b.var("p");
    let byte_at = |i: u32| {
        exp::zext(
            32,
            exp::in_byte(if i == 0 {
                exp::v(p)
            } else {
                exp::add(exp::v(p), exp::c32(i))
            }),
        )
    };
    let mut e = byte_at(0);
    if big_endian {
        for i in 1..bytes {
            e = exp::or(exp::shl(e, exp::c32(8)), byte_at(i));
        }
    } else {
        for i in 1..bytes {
            e = exp::or(e, exp::shl(byte_at(i), exp::c32(8 * i)));
        }
    }
    let ret = b.ret(Some(e));
    b.define_proc(id, vec![p], Block(vec![ret]));
}

/// The 32-bit allocation-size expression for a site.
fn size_expr(shape: Shape, vars: &[Symbol]) -> Aexp {
    let v = exp::v(vars[0]);
    match shape {
        Shape::MulConst(c) => exp::mul(v, exp::c32(c as u32)),
        Shape::AddConst(c) => exp::add(v, exp::c32(c as u32)),
        Shape::MulFields(c) => exp::mul(exp::mul(v, exp::v(vars[1])), exp::c32(c as u32)),
        Shape::ShlConst(k) => exp::shl(v, exp::c32(k)),
        Shape::MulAddConst(c, d) => exp::add(exp::mul(v, exp::c32(c as u32)), exp::c32(d as u32)),
    }
}

/// The 64-bit *true extent* expression, used by the probe loop to touch
/// the allocation across its full logical size (the detection mechanism
/// of §4.6: wrapped allocations fault under the probe).
fn true_extent_expr(shape: Shape, vars: &[Symbol]) -> Aexp {
    let v = exp::zext(64, exp::v(vars[0]));
    match shape {
        Shape::MulConst(c) => exp::mul(v, exp::c64(c)),
        Shape::AddConst(c) => exp::add(v, exp::c64(c)),
        Shape::MulFields(c) => exp::mul(exp::mul(v, exp::zext(64, exp::v(vars[1]))), exp::c64(c)),
        Shape::ShlConst(k) => exp::shl(v, exp::c64(u64::from(k))),
        Shape::MulAddConst(c, d) => exp::add(exp::mul(v, exp::c64(c)), exp::c64(d)),
    }
}

/// An input-independent busy loop of `work` iterations for site `k`,
/// over the fresh variables `acc` and `j`: arithmetic standing in for
/// parsing/decoding work. Draws nothing from the RNG.
fn work_loop(b: &mut ProgramBuilder, [acc, j]: [&str; 2], k: usize, work: u32) -> Vec<Stmt> {
    let acc = b.var(&format!("{acc}{k}"));
    let j = b.var(&format!("{j}{k}"));
    let mut stmts = vec![
        b.assign(acc, exp::c32(0x9E37_0001 ^ (k as u32))),
        b.assign(j, exp::c32(0)),
    ];
    let churn = b.assign(
        acc,
        exp::add(exp::mul(exp::v(acc), exp::c32(0x9E37_79B1)), exp::v(j)),
    );
    let bump = b.assign(j, exp::add(exp::v(j), exp::c32(1)));
    stmts.push(b.while_(
        exp::ult(exp::v(j), exp::c32(work)),
        Block(vec![churn, bump]),
    ));
    stmts
}

/// Builds the whole forged program for one application. Each site is
/// preceded by a `site_work` loop (inside the prefix its candidates
/// share) and, between its field reads and its guards, by a `stall_work`
/// loop (in the suffix every candidate run executes); 0 plants none.
fn build_program(
    app_idx: usize,
    plans: &[SitePlan],
    layout: &Layout,
    site_work: u32,
    stall_work: u32,
) -> Program {
    let mut b = ProgramBuilder::new();
    let main = b.declare_proc("main");
    let be16 = b.declare_proc("be16at");
    let le16 = b.declare_proc("le16at");
    let be32 = b.declare_proc("be32at");
    let le32 = b.declare_proc("le32at");
    define_loader(&mut b, be16, 2, true);
    define_loader(&mut b, le16, 2, false);
    define_loader(&mut b, be32, 4, true);
    define_loader(&mut b, le32, 4, false);

    let mut stmts: Vec<Stmt> = Vec::new();

    // Magic check: structurally irrelevant branches (their bytes feed no
    // target expression), like real container magics.
    let bad_magic = b.error("bad magic");
    stmts.push(b.if_(
        exp::bor(
            exp::ne(exp::in_byte(exp::c32(0)), exp::c8(b'S')),
            exp::ne(exp::in_byte(exp::c32(1)), exp::c8(b'Y')),
        ),
        Block(vec![bad_magic]),
        Block::new(),
    ));

    // Header checksum: concretely verified, untainted, always repaired by
    // reconstruction — the Peach contract.
    if let Some(crc_off) = layout.crc_off {
        let ok = b.skip();
        let bad = b.error("header checksum mismatch");
        stmts.push(b.if_(
            exp::crc32_ok(
                exp::c32(MAGIC_LEN),
                exp::c32(layout.hdr_len),
                exp::c32(crc_off),
            ),
            Block(vec![ok]),
            Block(vec![bad]),
        ));
    }

    for (k, plan) in plans.iter().enumerate() {
        // Optional processing-work loop: the parsing/decoding work
        // between sites (forged content with `site_work = 0` stays
        // byte-identical to older forges).
        if site_work > 0 {
            stmts.extend(work_loop(&mut b, ["work", "wj"], k, site_work));
        }

        // Field extraction (parser-style, via the loader helpers).
        let vars: Vec<Symbol> = plan
            .fields
            .iter()
            .enumerate()
            .map(|(j, field)| {
                let sym = b.var(&format!("v{k}_{j}"));
                let off = exp::c32(field.offset);
                let stmt = match field.width {
                    WidthClass::U8 => b.assign(sym, exp::zext(32, exp::in_byte(off))),
                    WidthClass::U16Be => b.call(Some(sym), be16, vec![off]),
                    WidthClass::U16Le => b.call(Some(sym), le16, vec![off]),
                    WidthClass::U32Be => b.call(Some(sym), be32, vec![off]),
                    WidthClass::U32Le => b.call(Some(sym), le32, vec![off]),
                };
                stmts.push(stmt);
                sym
            })
            .collect();

        // Optional stall: work after the first read of the site's fields,
        // where its candidates' prefix snapshot cannot skip it.
        if stall_work > 0 {
            stmts.extend(work_loop(&mut b, ["stall", "sj"], k, stall_work));
        }

        // Guard chain on the driver field.
        for (g, &limit) in plan.guards.iter().enumerate() {
            let reject = b.error(&format!("s{k}: check {g} rejects field"));
            stmts.push(b.if_(
                exp::ugt(exp::v(vars[0]), exp::c32(limit as u32)),
                Block(vec![reject]),
                Block::new(),
            ));
        }

        // Optional bounded skim loop: a relevant blocking check with many
        // dynamic occurrences (pins a trip count when enforced, so the
        // Figure 7 loop must skip it — §5.4's blocking-check story).
        if plan.blocking {
            let skim = b.var(&format!("skim{k}"));
            stmts.push(b.assign(skim, exp::c32(0)));
            let step = b.assign(skim, exp::add(exp::v(skim), exp::c32(1)));
            stmts.push(b.while_(
                exp::band(
                    exp::ult(exp::v(skim), exp::v(vars[0])),
                    exp::ult(exp::v(skim), exp::c32(40)),
                ),
                Block(vec![step]),
            ));
        }

        // The planted target site.
        let buf = b.var(&format!("buf{k}"));
        stmts.push(b.alloc(&plan.site, buf, size_expr(plan.shape, &vars)).1);

        // Probe loop across the true logical extent: 16 strided accesses,
        // so a wrapped (or failed) allocation faults.
        let t = b.var(&format!("t{k}"));
        stmts.push(b.assign(t, true_extent_expr(plan.shape, &vars)));
        let p = b.var(&format!("p{k}"));
        stmts.push(b.assign(p, exp::c64(0)));
        let write = b.store(
            buf,
            exp::udiv(exp::mul(exp::v(t), exp::v(p)), exp::c64(16)),
            exp::c8(0),
        );
        let bump = b.assign(p, exp::add(exp::v(p), exp::c64(1)));
        stmts.push(b.while_(exp::ult(exp::v(p), exp::c64(16)), Block(vec![write, bump])));
        stmts.push(b.free(buf));
    }

    b.define_proc(main, vec![], Block(stmts));
    let program = b.finish().expect("forged program is well-formed");
    debug_assert_eq!(
        program.alloc_sites().len(),
        plans.len(),
        "app {app_idx}: every planted site must be collected"
    );
    program
}

/// Builds one seed input (and its format description) for an application.
fn build_seed(
    app_idx: usize,
    plans: &[SitePlan],
    values: &[Vec<u64>],
    layout: &Layout,
) -> (Vec<u8>, FormatDesc) {
    let mut sb = SeedBuilder::new();
    sb.name(format!("synth-{app_idx:03}"));
    sb.raw(&[b'S', b'Y', b'N', b'0' + (app_idx % 10) as u8]);
    for (plan, vals) in plans.iter().zip(values) {
        for (field, &val) in plan.fields.iter().zip(vals) {
            debug_assert_eq!(sb.len(), field.offset, "layout/seed drift");
            match field.width {
                WidthClass::U8 => sb.u8(&field.path, val as u8),
                WidthClass::U16Be => sb.be16(&field.path, val as u16),
                WidthClass::U16Le => sb.le16(&field.path, val as u16),
                WidthClass::U32Be => sb.be32(&field.path, val as u32),
                WidthClass::U32Le => sb.le32(&field.path, val as u32),
            };
        }
    }
    if layout.crc_off.is_some() {
        sb.reserve_crc32(MAGIC_LEN, layout.hdr_len);
    }
    sb.finish()
}

/// Forges one application: plans its sites, assigns the input layout,
/// builds the program, the seeds, and the oracle entries.
fn forge_app(
    cfg: &SynthConfig,
    app_idx: usize,
    rng: &mut StdRng,
    stall_work: u32,
) -> (CampaignApp, AppOracle) {
    let n_sites = draw(rng, cfg.min_sites as u64, cfg.max_sites as u64) as usize;
    let mut classes: Vec<GroundTruth> = (0..n_sites).map(|_| cfg.mix.draw(rng)).collect();
    if cfg.branch_depth == 0 {
        // No guards ⇒ nothing can be guard-prevented.
        for c in &mut classes {
            if *c == GroundTruth::GuardPrevented {
                *c = GroundTruth::Exposable;
            }
        }
    }
    if cfg.mix.exposable > 0 && !classes.contains(&GroundTruth::Exposable) {
        // Keep the recall denominator meaningful: every app plants at
        // least one exposable site when the mix asks for any.
        classes[0] = GroundTruth::Exposable;
    }

    let mut plans: Vec<SitePlan> = Vec::with_capacity(n_sites);
    for (k, &class) in classes.iter().enumerate() {
        let (shape, widths) = pick_shape(rng, cfg, class);
        let field_max = widths[0].field_max();
        let secondary_max = widths.get(1).map_or(1, |w| w.field_max());
        let threshold = shape.overflow_threshold(secondary_max);
        match class {
            GroundTruth::TargetUnsat => {
                let maxes: Vec<u64> = widths.iter().map(|w| w.field_max()).collect();
                debug_assert!(shape.true_size(&maxes) < OVERFLOW);
            }
            _ => debug_assert!((2..=field_max).contains(&threshold)),
        }
        let guards = plan_guards(rng, class, cfg.branch_depth, threshold, field_max);
        let fields = widths
            .iter()
            .enumerate()
            .map(|(j, &width)| FieldSpec {
                width,
                offset: 0, // assigned below
                path: format!("/s{k}/f{j}"),
            })
            .collect();
        plans.push(SitePlan {
            class,
            shape,
            fields,
            guards,
            blocking: cfg.blocking_loops && rng.gen_bool(0.5),
            site: format!("gen{app_idx}.c@{}", 11 + 10 * k),
        });
    }
    let layout = assign_offsets(&mut plans, cfg.checksum);

    // Seed values: one vector per (app-seed, site, field).
    let all_values: Vec<Vec<Vec<u64>>> = (0..cfg.seeds_per_app)
        .map(|_| {
            plans
                .iter()
                .map(|plan| {
                    let secondary: Vec<u64> = (1..plan.shape.n_fields())
                        .map(|_| draw(rng, 1, 8))
                        .collect();
                    let driver = seed_value(rng, plan.shape, plan.allowed_max(), &secondary);
                    let mut vals = vec![driver];
                    vals.extend(secondary);
                    vals
                })
                .collect()
        })
        .collect();

    let program = build_program(app_idx, &plans, &layout, cfg.site_work, stall_work);
    let name = format!("forge-{app_idx:03}");

    let (first_seed, format) = build_seed(app_idx, &plans, &all_values[0], &layout);
    let mut app = CampaignApp::new(name.clone(), program, format, first_seed);
    for values in &all_values[1..] {
        let (seed, _) = build_seed(app_idx, &plans, values, &layout);
        app = app.with_seed(seed);
    }

    let oracle =
        AppOracle {
            app: name,
            sites: plans
                .iter()
                .map(|plan| PlantedSite {
                    site: plan.site.clone(),
                    truth: plan.class,
                    fields: plan.fields.iter().map(|f| f.path.clone()).collect(),
                    shape: plan.shape.describe(),
                    guards: plan.guards.clone(),
                    overflow_threshold: match plan.class {
                        GroundTruth::TargetUnsat => None,
                        _ => Some(plan.shape.overflow_threshold(
                            plan.fields.get(1).map_or(1, |f| f.width.field_max()),
                        )),
                    },
                })
                .collect(),
        };
    (app, oracle)
}

/// Derives the independent RNG stream of one application index.
///
/// Each forged app draws from its own stream — a SplitMix64 finalizer
/// over `(rng_seed, app_idx)` — so app `i`'s content depends only on the
/// configuration and `i`, never on how many apps were forged before it.
/// This is what makes incremental corpus growth possible: extending a
/// suite forges *only* the new indices, and the old apps are bit-stable.
fn app_rng(cfg: &SynthConfig, app_idx: usize) -> StdRng {
    let mut z = cfg
        .rng_seed
        .wrapping_add((app_idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// Forges the applications with indices `start .. start + count` — the
/// incremental-growth primitive behind `diode-corpus`. Because every app
/// draws from its own RNG stream, `forge_range(cfg, 0, k)` and
/// `forge_range(cfg, k, n)` together are byte-identical to
/// `forge_range(cfg, 0, k + n)`: growing a suite never re-forges (or
/// perturbs) the apps that already exist.
///
/// # Panics
///
/// Panics when the configuration is vacuous (no widths, no shapes, zero
/// sites, zero seeds, or `min_sites > max_sites`).
#[must_use]
pub fn forge_range(cfg: &SynthConfig, start: usize, count: usize) -> ForgedSuite {
    assert!(
        !cfg.widths.is_empty(),
        "SynthConfig.widths must not be empty"
    );
    assert!(
        !cfg.shapes.is_empty(),
        "SynthConfig.shapes must not be empty"
    );
    assert!(cfg.min_sites >= 1, "need at least one site per app");
    assert!(cfg.min_sites <= cfg.max_sites, "min_sites > max_sites");
    assert!(cfg.seeds_per_app >= 1, "need at least one seed per app");
    let mut apps = Vec::with_capacity(count);
    let mut oracles = Vec::with_capacity(count);
    for i in start..start + count {
        let mut rng = app_rng(cfg, i);
        let (app, oracle) = forge_app(cfg, i, &mut rng, 0);
        apps.push(app);
        oracles.push(oracle);
    }
    ForgedSuite {
        apps,
        oracle: SynthOracle { apps: oracles },
    }
}

/// The app index of [`forge_stall`]'s plant: outside the range of any
/// suite a job forges.
const STALL_INDEX: usize = 100;

/// Forges the single-site application a watchdog drill plants beside a
/// healthy suite: app index 100 of a one-site `rng_seed` forge, with a
/// `work`-iteration busy loop between the site's field reads and its
/// guards. The loop lies past the site's prefix-snapshot boundary (the
/// first read of its fields), so the extraction and every candidate run
/// execute it and the site is slow however its runs resume.
#[must_use]
pub fn forge_stall(work: u32, rng_seed: u64) -> CampaignApp {
    let cfg = SynthConfig {
        apps: 1,
        min_sites: 1,
        max_sites: 1,
        rng_seed,
        ..SynthConfig::default()
    };
    let mut rng = app_rng(&cfg, STALL_INDEX);
    forge_app(&cfg, STALL_INDEX, &mut rng, work).0
}

/// Forges a complete suite from a configuration. Deterministic: equal
/// configs produce byte-identical programs, seeds, formats, and oracles.
///
/// # Panics
///
/// Panics when the configuration is vacuous (no widths, no shapes, zero
/// sites, zero seeds, or `min_sites > max_sites`).
#[must_use]
pub fn forge(cfg: &SynthConfig) -> ForgedSuite {
    forge_range(cfg, 0, cfg.apps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use diode_interp::{run, Concrete, MachineConfig, Outcome};
    use diode_lang::pretty;

    #[test]
    fn forging_is_deterministic() {
        let cfg = SynthConfig::default().with_apps(3);
        let a = forge(&cfg);
        let b = forge(&cfg);
        assert_eq!(a.apps.len(), 3);
        for (x, y) in a.apps.iter().zip(&b.apps) {
            assert_eq!(x.name, y.name);
            assert_eq!(pretty::program(&x.program), pretty::program(&y.program));
            assert_eq!(x.seeds, y.seeds);
        }
        assert_eq!(a.oracle.expected_counts(), b.oracle.expected_counts());
    }

    #[test]
    fn forge_range_composes_without_reforging() {
        // Apps 0..3 forged in one shot are byte-identical to forging
        // 0..2 and then growing by 2..3 — the incremental-corpus contract.
        let cfg = SynthConfig::default().with_apps(3);
        let whole = forge(&cfg);
        let head = forge_range(&cfg, 0, 2);
        let tail = forge_range(&cfg, 2, 1);
        let parts: Vec<&CampaignApp> = head.apps.iter().chain(&tail.apps).collect();
        assert_eq!(whole.apps.len(), parts.len());
        for (w, p) in whole.apps.iter().zip(parts) {
            assert_eq!(w.name, p.name);
            assert_eq!(
                diode_lang::pretty::program(&w.program),
                diode_lang::pretty::program(&p.program)
            );
            assert_eq!(w.seeds, p.seeds);
            assert_eq!(w.format, p.format);
        }
        let grown_oracle: Vec<_> = head.oracle.apps.iter().chain(&tail.oracle.apps).collect();
        for (w, p) in whole.oracle.apps.iter().zip(grown_oracle) {
            assert_eq!(w, p);
        }
    }

    #[test]
    fn different_rng_seeds_forge_different_suites() {
        let a = forge(&SynthConfig::default().with_apps(2));
        let b = forge(&SynthConfig::default().with_apps(2).with_rng_seed(99));
        let pa: Vec<String> = a.apps.iter().map(|x| pretty::program(&x.program)).collect();
        let pb: Vec<String> = b.apps.iter().map(|x| pretty::program(&x.program)).collect();
        assert_ne!(pa, pb);
    }

    #[test]
    fn every_forged_seed_is_processed_cleanly() {
        let cfg = SynthConfig {
            apps: 6,
            seeds_per_app: 2,
            ..SynthConfig::default()
        };
        let suite = forge(&cfg);
        assert_eq!(suite.apps.len(), 6);
        for app in &suite.apps {
            for seed in &app.seeds {
                let r = run(&app.program, seed, Concrete, &MachineConfig::default());
                assert_eq!(
                    r.outcome,
                    Outcome::Completed,
                    "{}: {:?}",
                    app.name,
                    r.outcome
                );
                assert!(r.mem_errors.is_empty(), "{}: {:?}", app.name, r.mem_errors);
                // Every planted site is exercised by every seed.
                assert_eq!(
                    r.allocs.len(),
                    suite.oracle.app(&app.name).unwrap().sites.len()
                );
                assert!(r.allocs.iter().all(|a| !a.size_ovf && !a.failed));
            }
        }
    }

    #[test]
    fn every_app_plants_at_least_one_exposable_site() {
        let suite = forge(&SynthConfig::default().with_apps(8));
        for app in &suite.oracle.apps {
            assert!(
                app.sites.iter().any(|s| s.truth == GroundTruth::Exposable),
                "{} has no exposable site",
                app.app
            );
        }
    }

    #[test]
    fn depth_zero_remaps_guard_prevented_sites() {
        let suite = forge(&SynthConfig::default().with_apps(6).with_depth(0));
        let (_, _, _, prevented) = suite.oracle.expected_counts();
        assert_eq!(prevented, 0);
        for app in &suite.oracle.apps {
            for site in &app.sites {
                assert!(site.guards.is_empty() || site.truth == GroundTruth::TargetUnsat);
            }
        }
    }

    #[test]
    fn oracle_matches_program_structure() {
        let suite = forge(&SynthConfig::default().with_apps(4));
        for (app, oracle) in suite.apps.iter().zip(&suite.oracle.apps) {
            let sites = app.program.alloc_sites();
            assert_eq!(sites.len(), oracle.sites.len());
            for ((_, name), planted) in sites.iter().zip(&oracle.sites) {
                assert_eq!(&**name, planted.site);
                for path in &planted.fields {
                    assert!(app.format.field(path).is_some(), "missing field {path}");
                }
            }
        }
    }
}
