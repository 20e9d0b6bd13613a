//! Linear expressions over tuple variables, symbolic constants, and
//! uninterpreted-function (UF) calls.
//!
//! This is the term language of the sparse polyhedral framework: an
//! expression is an integer-linear combination of *atoms*, where an atom is
//! a tuple variable (e.g. `i`), a symbolic constant (e.g. `NNZ`), or a call
//! to an uninterpreted function whose arguments are themselves expressions
//! (e.g. `rowptr(i + 1)`).
//!
//! Expressions are kept in a canonical form: terms sorted by atom, merged,
//! and zero-coefficient terms dropped. Two expressions are semantically
//! equal iff they are structurally equal after canonicalization.

use std::cmp::Ordering;
use std::fmt;

/// Identifier of a variable inside one conjunction's variable space.
///
/// Indices `0..arity` denote tuple variables (for a relation, inputs come
/// before outputs); indices `arity..` denote existentially quantified
/// variables local to the conjunction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

impl VarId {
    /// Returns the raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A call to an uninterpreted function, such as `rowptr(i + 1)`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UfCall {
    /// Name of the uninterpreted function.
    pub name: String,
    /// Argument expressions.
    pub args: Vec<LinExpr>,
}

impl UfCall {
    /// Creates a UF call from a name and argument list.
    pub fn new(name: impl Into<String>, args: Vec<LinExpr>) -> Self {
        UfCall { name: name.into(), args }
    }

    /// Returns `true` if any argument (recursively) mentions variable `v`.
    pub fn uses_var(&self, v: VarId) -> bool {
        self.args.iter().any(|a| a.uses_var(v))
    }

    /// Applies `f` to every variable occurrence in the arguments.
    pub fn map_vars(&self, f: &mut impl FnMut(VarId) -> LinExpr) -> UfCall {
        UfCall {
            name: self.name.clone(),
            args: self.args.iter().map(|a| a.map_vars(f)).collect(),
        }
    }
}

impl fmt::Display for UfCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (k, a) in self.args.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

/// An atom: the non-constant building block of a linear expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Atom {
    /// A tuple or existential variable.
    Var(VarId),
    /// A symbolic constant such as `NNZ` or `NR`.
    Sym(String),
    /// An uninterpreted function call such as `col(k)`.
    Uf(UfCall),
    /// A product of two or more atoms, e.g. `ND * ii` in DIA's data
    /// access relation `kd = ND * ii + d`. Products are opaque to
    /// constraint solving (like UF arguments): a variable inside a
    /// product cannot be solved for, but substitution distributes through
    /// it.
    Prod(Vec<Atom>),
}

impl Atom {
    fn rank(&self) -> u8 {
        match self {
            Atom::Var(_) => 0,
            Atom::Sym(_) => 1,
            Atom::Uf(_) => 2,
            Atom::Prod(_) => 3,
        }
    }

    /// Returns `true` if variable `v` occurs anywhere inside this atom.
    pub fn uses_var(&self, v: VarId) -> bool {
        match self {
            Atom::Var(w) => *w == v,
            Atom::Sym(_) => false,
            Atom::Uf(u) => u.uses_var(v),
            Atom::Prod(fs) => fs.iter().any(|a| a.uses_var(v)),
        }
    }
}

impl PartialOrd for Atom {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Atom {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Atom::Var(a), Atom::Var(b)) => a.cmp(b),
            (Atom::Sym(a), Atom::Sym(b)) => a.cmp(b),
            (Atom::Uf(a), Atom::Uf(b)) => a.cmp(b),
            (Atom::Prod(a), Atom::Prod(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Bare variable ids; callers wanting names should use
            // `LinExpr::display_with`.
            Atom::Var(v) => write!(f, "v{}", v.0),
            Atom::Sym(s) => write!(f, "{s}"),
            Atom::Uf(u) => write!(f, "{u}"),
            Atom::Prod(fs) => {
                for (k, a) in fs.iter().enumerate() {
                    if k > 0 {
                        write!(f, " * ")?;
                    }
                    write!(f, "{a}")?;
                }
                Ok(())
            }
        }
    }
}

/// An integer-linear expression: `constant + Σ coeff·atom`.
///
/// Kept canonical: terms sorted by atom, no duplicate atoms, no zero
/// coefficients.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LinExpr {
    /// The constant part.
    pub constant: i64,
    /// `(coefficient, atom)` pairs, sorted by atom.
    pub terms: Vec<(i64, Atom)>,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        LinExpr::default()
    }

    /// A constant expression.
    pub fn constant(c: i64) -> Self {
        LinExpr { constant: c, terms: Vec::new() }
    }

    /// A single variable with coefficient 1.
    pub fn var(v: VarId) -> Self {
        LinExpr { constant: 0, terms: vec![(1, Atom::Var(v))] }
    }

    /// A symbolic constant with coefficient 1.
    pub fn sym(name: impl Into<String>) -> Self {
        LinExpr { constant: 0, terms: vec![(1, Atom::Sym(name.into()))] }
    }

    /// A UF call with coefficient 1.
    pub fn uf(call: UfCall) -> Self {
        LinExpr { constant: 0, terms: vec![(1, Atom::Uf(call))] }
    }

    /// A single scaled atom.
    pub fn term(coeff: i64, atom: Atom) -> Self {
        let mut e = LinExpr { constant: 0, terms: vec![(coeff, atom)] };
        e.canonicalize();
        e
    }

    /// Returns `true` if this is the literal zero expression.
    pub fn is_zero(&self) -> bool {
        self.constant == 0 && self.terms.is_empty()
    }

    /// Returns `Some(c)` when the expression is a constant.
    pub fn as_constant(&self) -> Option<i64> {
        if self.terms.is_empty() {
            Some(self.constant)
        } else {
            None
        }
    }

    /// Returns `Some(v)` when the expression is exactly one variable with
    /// coefficient 1 and no constant.
    pub fn as_single_var(&self) -> Option<VarId> {
        match (self.constant, self.terms.as_slice()) {
            (0, [(1, Atom::Var(v))]) => Some(*v),
            _ => None,
        }
    }

    /// Re-establishes canonical form (sorted, merged, zero-free terms).
    pub fn canonicalize(&mut self) {
        self.terms.sort_by(|a, b| a.1.cmp(&b.1));
        let mut out: Vec<(i64, Atom)> = Vec::with_capacity(self.terms.len());
        for (c, a) in self.terms.drain(..) {
            match out.last_mut() {
                Some((oc, oa)) if *oa == a => *oc += c,
                _ => out.push((c, a)),
            }
        }
        out.retain(|(c, _)| *c != 0);
        self.terms = out;
    }

    /// Adds another expression in place.
    pub fn add_assign(&mut self, other: &LinExpr) {
        self.constant += other.constant;
        self.terms.extend(other.terms.iter().cloned());
        self.canonicalize();
    }

    /// Returns `self + other`.
    pub fn add(&self, other: &LinExpr) -> LinExpr {
        let mut r = self.clone();
        r.add_assign(other);
        r
    }

    /// Returns `self - other`.
    pub fn sub(&self, other: &LinExpr) -> LinExpr {
        self.add(&other.scaled(-1))
    }

    /// Returns the expression scaled by `k`.
    pub fn scaled(&self, k: i64) -> LinExpr {
        if k == 0 {
            return LinExpr::zero();
        }
        LinExpr {
            constant: self.constant * k,
            terms: self.terms.iter().map(|(c, a)| (c * k, a.clone())).collect(),
        }
    }

    /// Coefficient of variable `v` as a *top-level* term (occurrences inside
    /// UF arguments are not counted).
    pub fn coeff_of_var(&self, v: VarId) -> i64 {
        self.terms
            .iter()
            .find_map(|(c, a)| match a {
                Atom::Var(w) if *w == v => Some(*c),
                _ => None,
            })
            .unwrap_or(0)
    }

    /// Coefficient of an arbitrary atom as a top-level term.
    pub fn coeff_of(&self, atom: &Atom) -> i64 {
        self.terms
            .iter()
            .find_map(|(c, a)| if a == atom { Some(*c) } else { None })
            .unwrap_or(0)
    }

    /// Returns `true` if `v` occurs anywhere, including inside UF
    /// arguments and products.
    pub fn uses_var(&self, v: VarId) -> bool {
        self.terms.iter().any(|(_, a)| a.uses_var(v))
    }

    /// Returns `true` if `v` occurs in an *opaque* position: inside a UF
    /// argument or inside a product (at any depth). Such occurrences
    /// cannot be solved for directly.
    pub fn var_inside_uf(&self, v: VarId) -> bool {
        self.terms.iter().any(|(_, a)| match a {
            Atom::Uf(u) => u.uses_var(v),
            Atom::Prod(fs) => fs.iter().any(|x| x.uses_var(v)),
            _ => false,
        })
    }

    /// Returns `true` if the expression mentions a UF with the given name
    /// (at any nesting depth).
    pub fn mentions_uf(&self, name: &str) -> bool {
        fn atom_mentions(a: &Atom, name: &str) -> bool {
            match a {
                Atom::Uf(u) => {
                    u.name == name || u.args.iter().any(|x| x.mentions_uf(name))
                }
                Atom::Prod(fs) => fs.iter().any(|x| atom_mentions(x, name)),
                _ => false,
            }
        }
        self.terms.iter().any(|(_, a)| atom_mentions(a, name))
    }

    /// Collects every variable mentioned (including inside UF args) into
    /// `out`.
    pub fn collect_vars(&self, out: &mut Vec<VarId>) {
        fn atom_vars(a: &Atom, out: &mut Vec<VarId>) {
            match a {
                Atom::Var(v) => out.push(*v),
                Atom::Sym(_) => {}
                Atom::Uf(u) => {
                    for arg in &u.args {
                        arg.collect_vars(out);
                    }
                }
                Atom::Prod(fs) => {
                    for x in fs {
                        atom_vars(x, out);
                    }
                }
            }
        }
        for (_, a) in &self.terms {
            atom_vars(a, out);
        }
    }

    /// Rewrites every variable occurrence (including inside UF args) via
    /// `f`, which maps a variable to a replacement expression.
    pub fn map_vars(&self, f: &mut impl FnMut(VarId) -> LinExpr) -> LinExpr {
        let mut out = LinExpr::constant(self.constant);
        for (c, a) in &self.terms {
            let repl = match a {
                Atom::Var(v) => f(*v).scaled(*c),
                Atom::Sym(s) => LinExpr::term(*c, Atom::Sym(s.clone())),
                Atom::Uf(u) => LinExpr::term(*c, Atom::Uf(u.map_vars(f))),
                Atom::Prod(fs) => {
                    // Distribute the substitution through the product.
                    let mut acc = LinExpr::constant(*c);
                    for x in fs {
                        let factor = LinExpr::term(1, x.clone()).map_vars(f);
                        acc = acc.mul_expr(&factor);
                    }
                    acc
                }
            };
            out.add_assign(&repl);
        }
        out
    }

    /// Full product of two expressions, distributing term-by-term.
    /// Products of non-constant atoms become (flattened, sorted)
    /// [`Atom::Prod`] atoms.
    pub fn mul_expr(&self, other: &LinExpr) -> LinExpr {
        fn atom_product(a: &Atom, b: &Atom) -> Atom {
            let mut fs = Vec::new();
            match a {
                Atom::Prod(xs) => fs.extend(xs.iter().cloned()),
                x => fs.push(x.clone()),
            }
            match b {
                Atom::Prod(xs) => fs.extend(xs.iter().cloned()),
                x => fs.push(x.clone()),
            }
            fs.sort();
            Atom::Prod(fs)
        }
        let mut out = LinExpr::constant(self.constant * other.constant);
        for (c, a) in &self.terms {
            out.add_assign(&LinExpr::term(c * other.constant, a.clone()));
        }
        for (c, b) in &other.terms {
            out.add_assign(&LinExpr::term(c * self.constant, b.clone()));
        }
        for (ca, a) in &self.terms {
            for (cb, b) in &other.terms {
                out.add_assign(&LinExpr::term(ca * cb, atom_product(a, b)));
            }
        }
        out
    }

    /// Substitutes `v := repl` everywhere (including inside UF arguments).
    pub fn substitute_var(&self, v: VarId, repl: &LinExpr) -> LinExpr {
        self.map_vars(&mut |w| {
            if w == v {
                repl.clone()
            } else {
                LinExpr::var(w)
            }
        })
    }

    /// Greatest common divisor of all top-level term coefficients
    /// (0 when there are no terms).
    pub fn terms_gcd(&self) -> i64 {
        self.terms.iter().fold(0i64, |g, (c, _)| gcd(g, c.abs()))
    }

    /// Renders the expression using `names` to resolve variable ids.
    pub fn display_with<'a>(&'a self, names: &'a dyn VarNames) -> ExprDisplay<'a> {
        ExprDisplay { expr: self, names }
    }
}

/// Resolves [`VarId`]s to human-readable names for display.
pub trait VarNames {
    /// Returns the name of `v`.
    fn var_name(&self, v: VarId) -> String;
}

/// Names variables `v0, v1, ...` — the fallback display scheme.
pub struct DefaultNames;

impl VarNames for DefaultNames {
    fn var_name(&self, v: VarId) -> String {
        format!("v{}", v.0)
    }
}

impl VarNames for Vec<String> {
    fn var_name(&self, v: VarId) -> String {
        self.get(v.index())
            .cloned()
            .unwrap_or_else(|| format!("v{}", v.0))
    }
}

/// Display adapter returned by [`LinExpr::display_with`].
pub struct ExprDisplay<'a> {
    expr: &'a LinExpr,
    names: &'a dyn VarNames,
}

fn fmt_atom(a: &Atom, names: &dyn VarNames, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match a {
        Atom::Var(v) => write!(f, "{}", names.var_name(*v)),
        Atom::Sym(s) => write!(f, "{s}"),
        Atom::Uf(u) => {
            write!(f, "{}(", u.name)?;
            for (k, arg) in u.args.iter().enumerate() {
                if k > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", arg.display_with(names))?;
            }
            write!(f, ")")
        }
        Atom::Prod(fs) => {
            for (k, x) in fs.iter().enumerate() {
                if k > 0 {
                    write!(f, " * ")?;
                }
                fmt_atom(x, names, f)?;
            }
            Ok(())
        }
    }
}

impl fmt::Display for ExprDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let e = self.expr;
        if e.terms.is_empty() {
            return write!(f, "{}", e.constant);
        }
        let mut first = true;
        for (c, a) in &e.terms {
            if first {
                if *c == -1 {
                    write!(f, "-")?;
                } else if *c != 1 {
                    write!(f, "{c} * ")?;
                }
                first = false;
            } else if *c < 0 {
                if *c == -1 {
                    write!(f, " - ")?;
                } else {
                    write!(f, " - {} * ", -c)?;
                }
            } else if *c == 1 {
                write!(f, " + ")?;
            } else {
                write!(f, " + {c} * ")?;
            }
            fmt_atom(a, self.names, f)?;
        }
        if e.constant > 0 {
            write!(f, " + {}", e.constant)?;
        } else if e.constant < 0 {
            write!(f, " - {}", -e.constant)?;
        }
        Ok(())
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display_with(&DefaultNames))
    }
}

/// Non-negative greatest common divisor; `gcd(0, x) = |x|`.
pub fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    #[test]
    fn canonicalize_merges_and_sorts() {
        let mut e = LinExpr {
            constant: 3,
            terms: vec![
                (2, Atom::Var(v(1))),
                (1, Atom::Var(v(0))),
                (-2, Atom::Var(v(1))),
                (4, Atom::Sym("N".into())),
            ],
        };
        e.canonicalize();
        assert_eq!(e.terms, vec![(1, Atom::Var(v(0))), (4, Atom::Sym("N".into()))]);
        assert_eq!(e.constant, 3);
    }

    #[test]
    fn add_and_sub_are_inverse() {
        let a = LinExpr::var(v(0)).add(&LinExpr::constant(5));
        let b = LinExpr::sym("N").add(&LinExpr::var(v(1)).scaled(3));
        let s = a.add(&b);
        assert_eq!(s.sub(&b), a);
    }

    #[test]
    fn substitute_var_reaches_inside_uf_args() {
        // col(i + 1) with i := k - 1 becomes col(k)
        let call = UfCall::new("col", vec![LinExpr::var(v(0)).add(&LinExpr::constant(1))]);
        let e = LinExpr::uf(call);
        let repl = LinExpr::var(v(2)).add(&LinExpr::constant(-1));
        let out = e.substitute_var(v(0), &repl);
        let expect = LinExpr::uf(UfCall::new("col", vec![LinExpr::var(v(2))]));
        assert_eq!(out, expect);
    }

    #[test]
    fn uses_var_sees_nested_occurrences() {
        let inner = UfCall::new("f", vec![LinExpr::var(v(3))]);
        let outer = UfCall::new("g", vec![LinExpr::uf(inner)]);
        let e = LinExpr::uf(outer);
        assert!(e.uses_var(v(3)));
        assert!(!e.uses_var(v(2)));
        assert!(e.var_inside_uf(v(3)));
        assert_eq!(e.coeff_of_var(v(3)), 0);
    }

    #[test]
    fn coeff_queries() {
        let e = LinExpr {
            constant: 7,
            terms: vec![(2, Atom::Var(v(0))), (-3, Atom::Sym("NNZ".into()))],
        };
        assert_eq!(e.coeff_of_var(v(0)), 2);
        assert_eq!(e.coeff_of(&Atom::Sym("NNZ".into())), -3);
        assert_eq!(e.coeff_of_var(v(9)), 0);
    }

    #[test]
    fn display_is_readable() {
        let e = LinExpr {
            constant: -1,
            terms: vec![(1, Atom::Var(v(0))), (-2, Atom::Sym("N".into()))],
        };
        assert_eq!(e.to_string(), "v0 - 2 * N - 1");
        assert_eq!(LinExpr::zero().to_string(), "0");
        let neg = LinExpr::term(-1, Atom::Var(v(1)));
        assert_eq!(neg.to_string(), "-v1");
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(12, -8), 4);
    }

    #[test]
    fn mentions_uf_nested() {
        let inner = UfCall::new("rowptr", vec![LinExpr::var(v(0))]);
        let outer = UfCall::new("perm", vec![LinExpr::uf(inner)]);
        let e = LinExpr::uf(outer);
        assert!(e.mentions_uf("rowptr"));
        assert!(e.mentions_uf("perm"));
        assert!(!e.mentions_uf("col"));
    }
}
