//! The rule catalog: the paper's Figures 5 and 8, structural plumbing rules,
//! and an extended pool of verified KOLA laws.
//!
//! Every rule here is pure pattern data — no rule carries code. All rules
//! are checked for soundness by the `kola-verify` crate (randomized,
//! type-directed testing; the paper used the Larch prover instead).
//!
//! ## Numbering
//!
//! Rules `1`–`16` are Figure 5; `17`–`24` are Figure 8. One deliberate
//! deviation: the paper writes rule 7 as `gt⁻¹ ≡ leq`, but its own
//! derivations (rule 13 and Figure 4/6) force `⁻¹` to be the *converse*
//! (argument swap), whose value on `gt` is strict less-than. We therefore
//! state rule 7 as `inv(gt) ≡ lt`; where the paper's figures print
//! `Cp(leq, 25)` our derivations print `Cp(lt, 25)`. See EXPERIMENTS.md.
//!
//! Structural rules have letter ids (`app`, `18a`, …); extended-pool rules
//! are prefixed `e`.

use crate::props::{PropKind, PropTerm};
use crate::rule::{Direction, RewritePair, Rule, RuleSource};
use kola::pattern::{PFunc, PPred, PQuery};
use std::collections::BTreeMap;

/// A rule pool with id-based lookup.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    rules: Vec<Rule>,
    index: BTreeMap<String, usize>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a rule. Panics on duplicate ids (catalog is static data).
    pub fn add(&mut self, rule: Rule) {
        assert!(
            !self.index.contains_key(&rule.id),
            "duplicate rule id {}",
            rule.id
        );
        self.index.insert(rule.id.clone(), self.rules.len());
        self.rules.push(rule);
    }

    /// Look up a rule by id.
    pub fn get(&self, id: &str) -> Option<&Rule> {
        self.index.get(id).map(|i| &self.rules[*i])
    }

    /// All rules in insertion order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Resolve a derivation-style rule reference: `"11"` (forward) or
    /// `"12-1"` (backward). Panics on unknown ids — references are static.
    pub fn resolve(&self, spec: &str) -> (&Rule, Direction) {
        self.try_resolve(spec).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Catalog::resolve`]: unknown references become
    /// [`crate::budget::RewriteError::UnknownRule`] instead of a panic, so
    /// strategies built from untrusted rule references degrade gracefully.
    pub fn try_resolve(
        &self,
        spec: &str,
    ) -> Result<(&Rule, Direction), crate::budget::RewriteError> {
        let (id, dir) = match spec.strip_suffix("-1") {
            Some(base) => (base, Direction::Backward),
            None => (spec, Direction::Forward),
        };
        self.get(id).map(|rule| (rule, dir)).ok_or_else(|| {
            crate::budget::RewriteError::UnknownRule {
                spec: spec.to_string(),
            }
        })
    }

    /// Ids of all rules, in insertion order — the forward-orientation rule
    /// universe a service breaker tracks.
    pub fn forward_ids(&self) -> Vec<String> {
        self.rules.iter().map(|r| r.id.clone()).collect()
    }

    /// Restrict a run's quarantine state to rules this catalog owns: the
    /// catalog-level accessor for breaker observability. Entries for rules
    /// the catalog does not know (e.g. from a merged foreign report) are
    /// dropped.
    pub fn quarantine_report(
        &self,
        report: &crate::budget::RewriteReport,
    ) -> crate::budget::QuarantineReport {
        let mut qr = report.quarantine_report();
        qr.entries.retain(|e| self.get(&e.rule_id).is_some());
        qr
    }

    /// The full paper catalog: Figures 5 + 8, structural rules, extended
    /// pool, the n-family Bool/set/aggregate identities, and the systematic
    /// context closure of all of the above (see [`closures`]). Every rule is
    /// machine-verified by `kola-verify`; the closure takes the pool past the
    /// paper's "500 rules" operating point.
    pub fn paper() -> Catalog {
        let mut c = Catalog::new();
        for r in figure5() {
            c.add(r.from_source(RuleSource::Figure5));
        }
        for r in figure8() {
            c.add(r.from_source(RuleSource::Figure8));
        }
        for r in structural() {
            c.add(r.from_source(RuleSource::Structural));
        }
        for r in extended() {
            c.add(r.from_source(RuleSource::Extended));
        }
        for r in nfamily() {
            c.add(r.from_source(RuleSource::Extended));
        }
        let closed = closures(c.rules());
        for r in closed {
            c.add(r);
        }
        c
    }
}

/// Figure 5: the sixteen general-purpose rules.
pub fn figure5() -> Vec<Rule> {
    vec![
        Rule::func("1", "compose-id-right", "$f . id", "$f"),
        Rule::func("2", "compose-id-left", "id . $f", "$f"),
        Rule::pred("3", "oplus-id", "%p @ id", "%p"),
        Rule::func("4", "pair-projections", "(pi1, pi2)", "id"),
        Rule::pred("5", "and-true-left", "Kp(T) & %p", "%p"),
        Rule::pred("6", "const-pred-oplus", "Kp(T) @ $f", "Kp(T)")
            .with_alt_pred("Kp(F) @ $f", "Kp(F)"),
        // Paper prints `gt⁻¹ ≡ leq`; the sound reading of ⁻¹ is converse,
        // so the right-hand side is strict less-than. See module docs.
        Rule::pred("7", "converse-gt", "inv(gt)", "lt"),
        Rule::func("8", "const-absorbs", "Kf(^k) . $f", "Kf(^k)"),
        Rule::func("9", "pi1-pairing", "pi1 . ($f, $g)", "$f"),
        Rule::func("10", "pi2-pairing", "pi2 . ($f, $g)", "$g"),
        Rule::func(
            "11",
            "iterate-fusion",
            "iterate(%p, $f) . iterate(%q, $g)",
            "iterate(%q & %p @ $g, $f . $g)",
        ),
        Rule::func(
            "12",
            "select-map-fusion",
            "iterate(%p, id) . iterate(Kp(T), $f)",
            "iterate(%p @ $f, $f)",
        ),
        Rule::pred(
            "13",
            "constant-curry",
            "%p @ ($f, Kf(^k))",
            "Cp(inv(%p), ^k) @ $f",
        ),
        Rule::pred("14", "oplus-compose", "%p @ ($f . $g)", "(%p @ $f) @ $g"),
        Rule::func(
            "15",
            "iter-env-test",
            "iter(%p @ pi1, pi2)",
            "con(%p @ pi1, pi2, Kf({}))",
        ),
        Rule::func(
            "16",
            "cond-compose",
            "con(%p, $f, $g) . $h",
            "con(%p @ $h, $f . $h, $g . $h)",
        ),
    ]
}

/// Figure 8: the hidden-join untangling rules.
pub fn figure8() -> Vec<Rule> {
    vec![
        // 17 proper, plus the g = id degenerate form the paper's footnote
        // covers ("g could be id, in which case the factor drops out").
        Rule::func(
            "17",
            "break-up-iterate",
            "iterate(Kp(T), ($j, $g . iter(%p, $f) . (id, $h)))",
            "iterate(Kp(T), ($j . pi1, pi2)) . \
             iterate(Kp(T), (pi1, $g . pi2)) . \
             iterate(Kp(T), (pi1, iter(%p, $f))) . \
             iterate(Kp(T), (id, $h))",
        )
        .with_alt_func(
            "iterate(Kp(T), ($j, iter(%p, $f) . (id, $h)))",
            "iterate(Kp(T), ($j . pi1, pi2)) . \
             iterate(Kp(T), (pi1, iter(%p, $f))) . \
             iterate(Kp(T), (id, $h))",
        ),
        Rule::func("18", "iterate-id", "iterate(Kp(T), id)", "id"),
        Rule::query(
            "19",
            "bottom-out",
            "iterate(Kp(T), (id, Kf(^B))) ! ^A",
            "nest(pi1, pi2) . (join(Kp(T), id), pi1) ! [^A, ^B]",
        ),
        Rule::func(
            "20",
            "pull-nest-past-iter",
            "iterate(Kp(T), (pi1, iter(%p, $f))) . nest(pi1, pi2)",
            "nest(pi1, pi2) . (iterate(%p, (pi1, $f)) * id)",
        ),
        Rule::func(
            "21",
            "pull-nest-past-flat",
            "iterate(Kp(T), (pi1, flat . pi2)) . nest(pi1, pi2)",
            "nest(pi1, pi2) . (unnest(pi1, pi2) * id)",
        ),
        Rule::func(
            "22",
            "pull-unnest-past-iterate",
            "(iterate(%p, (pi1, $f)) * id) . (unnest(pi1, pi2) * id)",
            "(unnest(pi1, pi2) * id) . (iterate(Kp(T), (pi1, iter(%p, $f))) * id)",
        ),
        Rule::func(
            "23",
            "pull-unnest-past-unnest",
            "(unnest(pi1, pi2) * id) . (unnest(pi1, pi2) * id)",
            "(unnest(pi1, pi2) * id) . (iterate(Kp(T), (pi1, flat . pi2)) * id)",
        ),
        Rule::func(
            "24",
            "absorb-into-join",
            "(iterate(%p, $f) * id) . (join(%q, $g), pi1)",
            "(join(%q & %p @ $g, $f . $g), pi1)",
        ),
    ]
}

/// Structural plumbing rules (compose/application): not in the paper's
/// figures but implicit in its derivations (compose is applied/fused when
/// moving between the forms of Steps 1–2).
pub fn structural() -> Vec<Rule> {
    vec![
        // Definition of composition at the query level. Forward splits one
        // segment off a pipeline; backward fuses.
        Rule::query("app", "compose-apply", "($f . $g) ! ^x", "$f ! ($g ! ^x)"),
        // ⟨π1, id∘π2⟩-style residue cleanup used by Step 1 (footnote 5).
        Rule::func("4a", "pair-proj-compose", "(pi1 . id, pi2)", "(pi1, pi2)"),
    ]
}

/// The extended pool: generally applicable KOLA laws beyond the paper's 24.
/// Ids are prefixed `e`. Every law is verified by `kola-verify`.
pub fn extended() -> Vec<Rule> {
    let mut v = vec![
        // --- projection / product laws ---
        Rule::func("e1", "pi1-times", "pi1 . ($f * $g)", "$f . pi1"),
        Rule::func("e2", "pi2-times", "pi2 . ($f * $g)", "$g . pi2"),
        Rule::func(
            "e3",
            "times-fusion",
            "($f * $g) . ($h * $j)",
            "($f . $h) * ($g . $j)",
        ),
        Rule::func(
            "e4",
            "pairing-compose",
            "($f, $g) . $h",
            "($f . $h, $g . $h)",
        ),
        Rule::func(
            "e5",
            "times-pairing",
            "($f * $g) . ($h, $j)",
            "($f . $h, $g . $j)",
        ),
        Rule::func("e6", "times-id", "id * id", "id"),
        Rule::func("e7", "times-as-pairing", "$f * $g", "($f . pi1, $g . pi2)"),
        // --- constant / curry laws ---
        Rule::func("e10", "compose-const", "$f . Kf(^k)", "Kf($f ! ^k)"),
        Rule::func("e11", "curry-unfold", "Cf($f, ^k)", "$f . (Kf(^k), id)"),
        Rule::pred(
            "e12",
            "curry-pred-unfold",
            "Cp(%p, ^k)",
            "%p @ (Kf(^k), id)",
        ),
        Rule::func(
            "e13",
            "curry-compose",
            "Cf($f, ^k) . $g",
            "Cf($f . id * $g, ^k)",
        ),
        Rule::pred(
            "e14",
            "curry-pred-compose",
            "Cp(%p, ^k) @ $g",
            "Cp(%p @ id * $g, ^k)",
        ),
        // --- conditional laws ---
        Rule::func(
            "e20",
            "compose-cond",
            "$f . con(%p, $g, $h)",
            "con(%p, $f . $g, $f . $h)",
        ),
        Rule::func("e21", "cond-true", "con(Kp(T), $f, $g)", "$f"),
        Rule::func("e22", "cond-false", "con(Kp(F), $f, $g)", "$g"),
        Rule::func("e23", "cond-same", "con(%p, $f, $f)", "$f"),
        Rule::func("e24", "cond-flip", "con(~%p, $f, $g)", "con(%p, $g, $f)"),
        // --- boolean algebra of predicates ---
        Rule::pred("e30", "and-idem", "%p & %p", "%p"),
        Rule::pred("e31", "or-idem", "%p | %p", "%p"),
        Rule::pred("e32", "and-true-right", "%p & Kp(T)", "%p"),
        Rule::pred("e33", "and-false-left", "Kp(F) & %p", "Kp(F)"),
        Rule::pred("e34", "and-false-right", "%p & Kp(F)", "Kp(F)"),
        Rule::pred("e35", "or-false-left", "Kp(F) | %p", "%p"),
        Rule::pred("e36", "or-false-right", "%p | Kp(F)", "%p"),
        Rule::pred("e37", "or-true-left", "Kp(T) | %p", "Kp(T)"),
        Rule::pred("e38", "or-true-right", "%p | Kp(T)", "Kp(T)"),
        Rule::pred("e39", "de-morgan-and", "~(%p & %q)", "~%p | ~%q"),
        Rule::pred("e40", "de-morgan-or", "~(%p | %q)", "~%p & ~%q"),
        Rule::pred("e41", "double-negation", "~~%p", "%p"),
        Rule::pred("e42", "not-true", "~Kp(T)", "Kp(F)"),
        Rule::pred("e43", "not-false", "~Kp(F)", "Kp(T)"),
        Rule::pred("e44", "and-commute", "%p & %q", "%q & %p"),
        Rule::pred("e45", "or-commute", "%p | %q", "%q | %p"),
        Rule::pred("e46", "and-assoc", "(%p & %q) & %r", "%p & (%q & %r)"),
        Rule::pred("e47", "or-assoc", "(%p | %q) | %r", "%p | (%q | %r)"),
        Rule::pred(
            "e48",
            "and-or-distrib",
            "%p & (%q | %r)",
            "(%p & %q) | (%p & %r)",
        ),
        Rule::pred(
            "e49",
            "or-and-distrib",
            "%p | (%q & %r)",
            "(%p | %q) & (%p | %r)",
        )
        .with_alt_pred("(%q & %r) | %p", "(%q | %p) & (%r | %p)"),
        // --- ⊕ distribution ---
        Rule::pred(
            "e50",
            "oplus-and",
            "(%p & %q) @ $f",
            "(%p @ $f) & (%q @ $f)",
        ),
        Rule::pred("e51", "oplus-or", "(%p | %q) @ $f", "(%p @ $f) | (%q @ $f)"),
        Rule::pred("e52", "oplus-not", "~%p @ $f", "~(%p @ $f)"),
        // --- converse laws ---
        Rule::pred("e60", "converse-involution", "inv(inv(%p))", "%p"),
        Rule::pred("e61", "converse-eq", "inv(eq)", "eq"),
        Rule::pred("e62", "converse-lt", "inv(lt)", "gt"),
        Rule::pred("e63", "converse-leq", "inv(leq)", "geq"),
        Rule::pred("e64", "converse-geq", "inv(geq)", "leq"),
        Rule::pred(
            "e65",
            "converse-times",
            "inv(%p @ ($f * $g))",
            "inv(%p) @ ($g * $f)",
        ),
        Rule::pred("e66", "converse-and", "inv(%p & %q)", "inv(%p) & inv(%q)"),
        Rule::pred("e67", "converse-or", "inv(%p | %q)", "inv(%p) | inv(%q)"),
        Rule::pred("e68", "converse-not", "inv(~%p)", "~inv(%p)"),
        // --- iterate / flat / iter laws ---
        Rule::func(
            "e70",
            "flat-iterate-commute",
            "flat . iterate(Kp(T), iterate(%p, $f))",
            "iterate(%p, $f) . flat",
        ),
        Rule::func("e71", "iterate-false", "iterate(Kp(F), $f)", "Kf({})"),
        Rule::func("e72", "iter-trivial", "iter(Kp(T), pi2)", "pi2"),
        Rule::func(
            "e73",
            "iterate-cond-push",
            "iterate(%p, con(%q, $f, $f))",
            "iterate(%p, $f)",
        ),
        Rule::func(
            "e74",
            "flat-single",
            "flat . iterate(Kp(T), (iterate(Kp(T), $f)))",
            "iterate(Kp(T), $f) . flat",
        ),
        // --- join laws ---
        Rule::func(
            "e80",
            "join-pred-absorb",
            "iterate(%p, id) . join(%q, id)",
            "join(%q & %p, id)",
        ),
        Rule::func(
            "e81",
            "join-map-fuse",
            "iterate(Kp(T), $f) . join(%q, $g)",
            "join(%q, $f . $g)",
        ),
        Rule::func(
            "e82",
            "join-swap",
            "join(%p, $f) . (pi2, pi1)",
            "join(inv(%p), $f . (pi2, pi1))",
        ),
        // --- query-level set laws ---
        Rule::query("e90", "union-idem", "^A union ^A", "^A"),
        Rule::query("e91", "intersect-idem", "^A intersect ^A", "^A"),
        Rule::query("e92", "union-commute", "^A union ^B", "^B union ^A"),
        Rule::query(
            "e93",
            "intersect-commute",
            "^A intersect ^B",
            "^B intersect ^A",
        ),
        Rule::query(
            "e94",
            "union-assoc",
            "(^A union ^B) union ^C",
            "^A union (^B union ^C)",
        ),
        Rule::query("e95", "sunion-bridge", "sunion ! [^A, ^B]", "^A union ^B"),
        Rule::query(
            "e96",
            "sinter-bridge",
            "sinter ! [^A, ^B]",
            "^A intersect ^B",
        ),
        Rule::query("e97", "sdiff-bridge", "sdiff ! [^A, ^B]", "^A diff ^B"),
        Rule::query(
            "e98",
            "iterate-over-union",
            "iterate(%p, $f) ! (^A union ^B)",
            "(iterate(%p, $f) ! ^A) union (iterate(%p, $f) ! ^B)",
        ),
        Rule::query("e99", "diff-self", "^A diff ^A", "{}").one_way(),
        // --- the paper's precondition example (§4.2) ---
        Rule::query(
            "e100",
            "injective-intersect-push",
            "(iterate(Kp(T), $f) ! ^A) intersect (iterate(Kp(T), $f) ! ^B)",
            "iterate(Kp(T), $f) ! (^A intersect ^B)",
        )
        .with_precondition(PropKind::Injective, PropTerm::func("f")),
        Rule::query(
            "e101",
            "injective-diff-push",
            "(iterate(Kp(T), $f) ! ^A) diff (iterate(Kp(T), $f) ! ^B)",
            "iterate(Kp(T), $f) ! (^A diff ^B)",
        )
        .with_precondition(PropKind::Injective, PropTerm::func("f")),
        // --- tidy rules used to reach Figure 3's exact KG2 form ---
        Rule::func("e110", "pair-to-times", "(pi1, $g . pi2)", "id * $g"),
        Rule::func("e111", "pair-to-times-left", "($f . pi1, pi2)", "$f * id"),
        Rule::func(
            "e112",
            "pair-to-times-both",
            "($f . pi1, $g . pi2)",
            "$f * $g",
        ),
        Rule::pred(
            "e113",
            "oplus-pair-to-times",
            "%p @ (pi1, $g . pi2)",
            "%p @ id * $g",
        ),
    ];
    // --- more join / iter / flat laws ---
    v.extend(vec![
        Rule::func("e130", "join-false", "join(Kp(F), $f)", "Kf({})"),
        Rule::func(
            "e131",
            "map-into-join",
            "join(%p, $f) . (iterate(Kp(T), $g) * iterate(Kp(T), $h))",
            "join(%p @ $g * $h, $f . $g * $h)",
        ),
        Rule::func(
            "e135",
            "iter-ignores-env",
            "iter(Kp(T), $f . pi2)",
            "iterate(Kp(T), $f) . pi2",
        ),
        Rule::func(
            "e136",
            "iter-env-free-filter",
            "iter(%p @ pi2, $f . pi2)",
            "iterate(%p, $f) . pi2",
        ),
        Rule::func("e140", "flat-empty", "flat . Kf({})", "Kf({})"),
        // --- conditional decompositions ---
        Rule::func(
            "e151",
            "cond-and-split",
            "con(%p & %q, $f, $g)",
            "con(%p, con(%q, $f, $g), $g)",
        ),
        Rule::func(
            "e152",
            "cond-or-split",
            "con(%p | %q, $f, $g)",
            "con(%p, $f, con(%q, $f, $g))",
        ),
        // --- query-level applications and filters ---
        Rule::query("e154", "const-pred-apply", "(%p @ Kf(^k)) ? ^x", "%p ? ^k").one_way(),
        Rule::query(
            "e162",
            "flat-over-union",
            "flat ! (^A union ^B)",
            "(flat ! ^A) union (flat ! ^B)",
        ),
        Rule::query(
            "e163",
            "filter-fusion-applied",
            "iterate(%p, id) ! iterate(%q, id) ! ^A",
            "iterate(%q & %p, id) ! ^A",
        ),
        Rule::query(
            "e164",
            "filter-intersect-commute",
            "iterate(%p, id) ! (^A intersect ^B)",
            "(iterate(%p, id) ! ^A) intersect ^B",
        ),
        Rule::query(
            "e165",
            "filter-diff-commute",
            "iterate(%p, id) ! (^A diff ^B)",
            "(iterate(%p, id) ! ^A) diff ^B",
        ),
        // --- boolean algebra of sets ---
        Rule::query(
            "e170",
            "diff-over-union",
            "^A diff (^B union ^C)",
            "(^A diff ^B) intersect (^A diff ^C)",
        ),
        Rule::query(
            "e171",
            "diff-over-intersect",
            "^A diff (^B intersect ^C)",
            "(^A diff ^B) union (^A diff ^C)",
        ),
        Rule::query(
            "e172",
            "intersect-over-union",
            "^A intersect (^B union ^C)",
            "(^A intersect ^B) union (^A intersect ^C)",
        ),
        Rule::query(
            "e173",
            "absorption-union",
            "^A union (^A intersect ^B)",
            "^A",
        ),
        Rule::query(
            "e174",
            "absorption-intersect",
            "^A intersect (^A union ^B)",
            "^A",
        ),
        Rule::query(
            "e175",
            "union-then-diff",
            "(^A union ^B) diff ^B",
            "^A diff ^B",
        ),
        Rule::query("e176", "union-empty-left", "{} union ^A", "^A"),
        Rule::query("e177", "union-empty-right", "^A union {}", "^A"),
        Rule::query("e178", "intersect-empty", "{} intersect ^A", "{}").one_way(),
        Rule::query("e179", "diff-empty", "^A diff {}", "^A"),
        // --- comparison algebra (integers) ---
        Rule::pred("e180", "lt-or-eq", "lt | eq", "leq"),
        Rule::pred("e181", "gt-or-eq", "gt | eq", "geq"),
        Rule::pred("e182", "not-lt", "~lt", "geq"),
        Rule::pred("e183", "not-gt", "~gt", "leq"),
        Rule::pred("e184", "not-leq", "~leq", "gt"),
        Rule::pred("e185", "not-geq", "~geq", "lt"),
        Rule::pred("e186", "lt-and-gt", "lt & gt", "Kp(F)"),
        Rule::pred("e187", "leq-and-geq", "leq & geq", "eq"),
    ]);
    // --- swap / symmetry laws ---
    v.extend(vec![
        Rule::func("e200", "swap-involution", "(pi2, pi1) . (pi2, pi1)", "id"),
        Rule::func(
            "e201",
            "swap-product-commute",
            "(pi2, pi1) . ($f * $g)",
            "($g * $f) . (pi2, pi1)",
        ),
        Rule::pred("e202", "eq-symmetric", "eq @ (pi2, pi1)", "eq"),
        Rule::pred("e203", "converse-via-swap", "inv(%p) @ (pi2, pi1)", "%p"),
        Rule::func(
            "e204",
            "map-over-sunion",
            "iterate(%p, $f) . sunion",
            "sunion . (iterate(%p, $f) * iterate(%p, $f))",
        ),
        Rule::func(
            "e205",
            "conjunct-split",
            "iterate(%p & %q, $f)",
            "iterate(%p, $f) . iterate(%q, id)",
        ),
        Rule::func(
            "e208",
            "unnest-of-pairing",
            "unnest(pi1, pi2) . iterate(Kp(T), ($f, $g))",
            "unnest($f, $g)",
        ),
        Rule::query(
            "e210",
            "nest-of-empty",
            "nest(pi1, pi2) ! [{}, ^B]",
            "iterate(Kp(T), (id, Kf({}))) ! ^B",
        ),
        Rule::func(
            "e211",
            "bag-union-roundtrip",
            "dedup . bunion . (bagify * bagify)",
            "sunion",
        ),
        Rule::pred("e212", "geq-and-leq", "geq & leq", "eq"),
        Rule::pred("e213", "lt-or-gt", "lt | gt", "~eq"),
    ]);
    // --- bag laws (§6 extension): deferring duplicate elimination ---
    v.extend(vec![
        Rule::func("b1", "dedup-bagify", "dedup . bagify", "id"),
        Rule::func(
            "b2",
            "bag-roundtrip-iterate",
            "dedup . biterate(%p, $f) . bagify",
            "iterate(%p, $f)",
        ),
        Rule::func(
            "b3",
            "biterate-over-bunion",
            "biterate(%p, $f) . bunion",
            "bunion . (biterate(%p, $f) * biterate(%p, $f))",
        ),
        Rule::func(
            "b4",
            "dedup-over-bunion",
            "dedup . bunion",
            "sunion . (dedup * dedup)",
        ),
        Rule::func("b5", "biterate-id", "biterate(Kp(T), id)", "id"),
        Rule::func(
            "b6",
            "biterate-fusion",
            "biterate(%p, $f) . biterate(%q, $g)",
            "biterate(%q & %p @ $g, $f . $g)",
        ),
        // The paper's §6 example: duplicate elimination deferred past a
        // union — produce bags as intermediate results, dedup once at the
        // end instead of once per input.
        Rule::query(
            "b7",
            "defer-dedup-past-union",
            "iterate(%p, $f) ! (^A union ^B)",
            "dedup ! bunion ! \
             [biterate(%p, $f) ! bagify ! ^A, biterate(%p, $f) ! bagify ! ^B]",
        ),
        Rule::func(
            "b8",
            "bag-flatten-support",
            "dedup . bflat . bagify . iterate(Kp(T), bagify)",
            "flat",
        ),
    ]);
    // Semantics-unfolding bridges (definitions of formers as compositions).
    v.extend(vec![
        Rule::query("e120", "const-apply", "Kf(^k) ! ^x", "^k").one_way(),
        Rule::query("e121", "id-apply", "id ! ^x", "^x"),
        Rule::query(
            "e122",
            "pairing-apply",
            "($f, $g) ! ^x",
            "[$f ! ^x, $g ! ^x]",
        ),
        Rule::query(
            "e123",
            "times-apply",
            "($f * $g) ! [^x, ^y]",
            "[$f ! ^x, $g ! ^y]",
        ),
        Rule::query("e124", "pi1-apply", "pi1 ! [^x, ^y]", "^x"),
        Rule::query("e125", "pi2-apply", "pi2 ! [^x, ^y]", "^y"),
    ]);
    v
}

/// The canonical cleanup rule set used between hidden-join steps:
/// identity/projection elimination and constant-predicate simplification.
pub fn cleanup_ids() -> Vec<&'static str> {
    vec![
        "1", "2", "3", "4", "4a", "5", "6", "8", "9", "10", "e32", "e6", "e3",
    ]
}

/// New identities beyond the paper's figures and the first extended pool:
/// Boolean algebra over predicates (contradiction, excluded middle,
/// absorption, totality of the comparison order), set algebra over queries
/// (associativity, distributivity, difference laws), and aggregate-style
/// function laws over the set combinators (`sunion`/`sinter`/`sdiff` units,
/// empty-source collapse). Ids are prefixed `n`.
pub fn nfamily() -> Vec<Rule> {
    vec![
        // --- Boolean / predicate identities ---
        Rule::pred("n1", "and-contradiction", "%p & ~%p", "Kp(F)"),
        Rule::pred("n2", "or-excluded-middle", "%p | ~%p", "Kp(T)"),
        Rule::pred("n3", "and-absorb-idem", "%p & (%p & %q)", "%p & %q"),
        Rule::pred("n4", "or-absorb-idem", "%p | (%p | %q)", "%p | %q"),
        Rule::pred("n5", "case-split", "(%p & %q) | (%p & ~%q)", "%p"),
        Rule::pred("n6", "conv-const-true", "inv(Kp(T))", "Kp(T)"),
        Rule::pred("n7", "conv-const-false", "inv(Kp(F))", "Kp(F)"),
        Rule::pred("n8", "eq-lt-disjoint", "eq & lt", "Kp(F)"),
        Rule::pred("n9", "eq-gt-disjoint", "eq & gt", "Kp(F)"),
        Rule::pred("n10", "leq-geq-total", "leq | geq", "Kp(T)"),
        Rule::pred("n11", "lt-geq-total", "lt | geq", "Kp(T)"),
        Rule::pred("n12", "gt-leq-total", "gt | leq", "Kp(T)"),
        Rule::pred("n13", "and-absorb-or", "%p & (%p | %q)", "%p"),
        Rule::pred("n14", "or-absorb-and", "%p | (%p & %q)", "%p"),
        // --- set algebra (query level) ---
        Rule::query(
            "n20",
            "intersect-assoc",
            "(^A intersect ^B) intersect ^C",
            "^A intersect (^B intersect ^C)",
        ),
        Rule::query(
            "n21",
            "partition",
            "(^A intersect ^B) union (^A diff ^B)",
            "^A",
        ),
        Rule::query(
            "n22",
            "diff-diff",
            "(^A diff ^B) diff ^C",
            "^A diff (^B union ^C)",
        ),
        Rule::query(
            "n23",
            "diff-roundtrip",
            "^A diff (^A diff ^B)",
            "^A intersect ^B",
        ),
        Rule::query(
            "n24",
            "intersect-diff-assoc",
            "^A intersect (^B diff ^C)",
            "(^A intersect ^B) diff ^C",
        ),
        Rule::query(
            "n25",
            "union-intersect-distrib",
            "^A union (^B intersect ^C)",
            "(^A union ^B) intersect (^A union ^C)",
        ),
        Rule::query(
            "n26",
            "intersect-union-distrib",
            "^A intersect (^B union ^C)",
            "(^A intersect ^B) union (^A intersect ^C)",
        ),
        // --- aggregate-style function laws ---
        Rule::func("n30", "swap-pairing", "(pi2, pi1) . ($f, $g)", "($g, $f)"),
        Rule::func("n31", "sunion-empty-left", "sunion . (Kf({}), id)", "id"),
        Rule::func("n32", "sunion-empty-right", "sunion . (id, Kf({}))", "id"),
        Rule::func("n33", "sdiff-empty-right", "sdiff . (id, Kf({}))", "id"),
        Rule::func("n34", "sunion-self", "sunion . (id, id)", "id"),
        Rule::func("n35", "sinter-self", "sinter . (id, id)", "id"),
        Rule::func("n36", "sdiff-self", "sdiff . (id, id)", "Kf({})"),
        Rule::func(
            "n37",
            "iterate-empty-source",
            "iterate(%p, $f) . Kf({})",
            "Kf({})",
        ),
    ]
}

/// Rules excluded from closure generation because the closed form is
/// ill-typed: `union` forces both operands to be sets, but these rules'
/// sides are pair-valued (`e122`, `e123`) or Boolean-valued (`e154`).
const CLOSURE_SKIP: &[&str] = &["e122", "e123", "e154"];

/// Systematic context closure of a verified pool: embed each equivalence
/// `L == R` into every discriminating one-hole context the algebra offers.
/// If `L == R` holds, so does `C[L] == C[R]` for any context `C` — so every
/// generated rule is sound by congruence, and each is still independently
/// machine-verified by `kola-verify` like any handwritten rule.
///
/// Families (suffix appended to the base id):
///
/// - function rules: `pw` pair-with `(L, $zz) == (R, $zz)`, `ap` application
///   `L ! ^zx == R ! ^zx`, `cd` conditional branch
///   `con(%zp, L, $zz) == con(%zp, R, $zz)`;
/// - predicate rules: `op` precomposition `L @ $zz == R @ $zz`, `nt`
///   negation `~L == ~R`, `ts` test `L ? ^zx == R ? ^zx`;
/// - query rules: `un` union `L union ^zq == R union ^zq`.
///
/// Every family wraps the base pattern under a *concrete* head constructor,
/// so the discrimination tree keeps telling the closure apart from
/// unrelated probes after one or two edges — per-step match cost stays flat
/// as the pool grows (the benchmark gate in `kola-bench`). The one closure
/// family deliberately *not* generated is right-composition
/// `L . $zz == R . $zz`: its first chain segment is identical to the base
/// rule's, so it would shadow the base rule in every index bucket, never
/// fire (the base rule's prefix match wins at a lower position), and double
/// the failed-match work at every composition node.
///
/// Preconditioned rules are skipped (the closure would need to re-prove the
/// precondition about a subterm of the new pattern), as are the ill-typed
/// combinations in `CLOSURE_SKIP`. One-way rules produce one-way closures.
pub fn closures(base: &[Rule]) -> Vec<Rule> {
    let fresh_f = || Box::new(PFunc::Var("zz".into()));
    let fresh_p = || Box::new(PPred::Var("zp".into()));
    let fresh_q = || Box::new(PQuery::Var("zq".into()));
    let fresh_x = || Box::new(PQuery::Var("zx".into()));
    let mut out = Vec::new();
    for r in base {
        if !r.preconditions.is_empty() || CLOSURE_SKIP.contains(&r.id.as_str()) {
            continue;
        }
        match &r.alts[0] {
            RewritePair::F(..) => {
                close(&mut out, r, "pw", "pair-with", |a| {
                    let RewritePair::F(l, r) = a else {
                        unreachable!()
                    };
                    RewritePair::F(
                        PFunc::PairWith(Box::new(l.clone()), fresh_f()),
                        PFunc::PairWith(Box::new(r.clone()), fresh_f()),
                    )
                });
                close(&mut out, r, "ap", "applied", |a| {
                    let RewritePair::F(l, r) = a else {
                        unreachable!()
                    };
                    RewritePair::Q(
                        PQuery::App(l.clone(), fresh_x()),
                        PQuery::App(r.clone(), fresh_x()),
                    )
                });
                close(&mut out, r, "cd", "cond-branch", |a| {
                    let RewritePair::F(l, r) = a else {
                        unreachable!()
                    };
                    RewritePair::F(
                        PFunc::Cond(fresh_p(), Box::new(l.clone()), fresh_f()),
                        PFunc::Cond(fresh_p(), Box::new(r.clone()), fresh_f()),
                    )
                });
            }
            RewritePair::P(..) => {
                close(&mut out, r, "op", "oplus", |a| {
                    let RewritePair::P(l, r) = a else {
                        unreachable!()
                    };
                    RewritePair::P(
                        PPred::Oplus(Box::new(l.clone()), fresh_f()),
                        PPred::Oplus(Box::new(r.clone()), fresh_f()),
                    )
                });
                close(&mut out, r, "nt", "negated", |a| {
                    let RewritePair::P(l, r) = a else {
                        unreachable!()
                    };
                    RewritePair::P(
                        PPred::Not(Box::new(l.clone())),
                        PPred::Not(Box::new(r.clone())),
                    )
                });
                close(&mut out, r, "ts", "tested", |a| {
                    let RewritePair::P(l, r) = a else {
                        unreachable!()
                    };
                    RewritePair::Q(
                        PQuery::Test(l.clone(), fresh_x()),
                        PQuery::Test(r.clone(), fresh_x()),
                    )
                });
            }
            RewritePair::Q(..) => {
                close(&mut out, r, "un", "unioned", |a| {
                    let RewritePair::Q(l, r) = a else {
                        unreachable!()
                    };
                    RewritePair::Q(
                        PQuery::Union(Box::new(l.clone()), fresh_q()),
                        PQuery::Union(Box::new(r.clone()), fresh_q()),
                    )
                });
            }
        }
    }
    out
}

/// Build one closure rule by mapping `map` over every alternative of `r`.
fn close(
    out: &mut Vec<Rule>,
    r: &Rule,
    suffix: &str,
    name: &str,
    map: impl Fn(&RewritePair) -> RewritePair,
) {
    out.push(Rule {
        id: format!("{}{}", r.id, suffix),
        name: format!("{}-{}", r.name, name),
        alts: r.alts.iter().map(&map).collect(),
        preconditions: Vec::new(),
        bidirectional: r.bidirectional,
        source: RuleSource::Closure,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_catalog_builds() {
        let c = Catalog::paper();
        assert!(c.len() >= 80, "expected a large pool, got {}", c.len());
        assert!(c.get("11").is_some());
        assert!(c.get("24").is_some());
        assert!(c.get("app").is_some());
        assert!(c.get("e100").is_some());
        assert!(c.get("nope").is_none());
    }

    #[test]
    fn resolve_directions() {
        let c = Catalog::paper();
        let (r, d) = c.resolve("12-1");
        assert_eq!(r.id, "12");
        assert_eq!(d, Direction::Backward);
        let (r, d) = c.resolve("11");
        assert_eq!(r.id, "11");
        assert_eq!(d, Direction::Forward);
    }

    #[test]
    fn sources_tagged() {
        let c = Catalog::paper();
        assert_eq!(c.get("11").unwrap().source, RuleSource::Figure5);
        assert_eq!(c.get("20").unwrap().source, RuleSource::Figure8);
        assert_eq!(c.get("app").unwrap().source, RuleSource::Structural);
        assert_eq!(c.get("e30").unwrap().source, RuleSource::Extended);
    }

    #[test]
    #[should_panic]
    fn duplicate_ids_rejected() {
        let mut c = Catalog::new();
        c.add(Rule::func("x", "a", "id", "id . id"));
        c.add(Rule::func("x", "b", "id", "id . id"));
    }

    #[test]
    fn cleanup_ids_all_exist() {
        let c = Catalog::paper();
        for id in cleanup_ids() {
            assert!(c.get(id).is_some(), "missing cleanup rule {id}");
        }
    }
}
