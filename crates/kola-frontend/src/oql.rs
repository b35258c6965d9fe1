//! A small OQL-style surface language and its lowering to AQUA.
//!
//! The paper implemented translators "from both OQL \[9\] and AQUA \[25\]" into
//! KOLA \[11\]. This module provides the OQL half: a `select / from / where`
//! subset with nesting, path expressions, comparisons and boolean
//! connectives, lowered to AQUA (and from there to KOLA via
//! [`crate::to_kola`]).
//!
//! Grammar (nesting allowed anywhere an expression is):
//!
//! ```text
//! query  := select expr from ident in expr [where expr]
//!         | flatten ( query )
//! expr   := or-expr
//! or     := and ("or" and)*
//! and    := cmp ("and" cmp)*
//! cmp    := add (("="|"<"|"<="|">"|">="|"in") add)?
//! atom   := path | literal | "(" query-or-expr ")" | "[" expr "," expr "]"
//!         | "not" atom | select-query
//! path   := ident ("." ident)*
//! ```
//!
//! A bare identifier is a variable if bound by an enclosing `from`, else an
//! extent.

use kola::value::Value;
use kola_aqua::ast::{CmpOp, Expr, Lambda};
use std::collections::BTreeSet;
use std::fmt;

/// OQL parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OqlError {
    /// Description.
    pub msg: String,
}

impl fmt::Display for OqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OQL error: {}", self.msg)
    }
}

impl std::error::Error for OqlError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Str(String),
    Sym(char),
    Leq,
    Geq,
}

fn lex(src: &str) -> Result<Vec<Tok>, OqlError> {
    let mut out = Vec::new();
    let b = src.as_bytes();
    let mut i = 0;
    while i < b.len() {
        let c = b[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '<' | '>' if i + 1 < b.len() && b[i + 1] as char == '=' => {
                out.push(if c == '<' { Tok::Leq } else { Tok::Geq });
                i += 2;
            }
            '(' | ')' | '[' | ']' | ',' | '.' | '=' | '<' | '>' => {
                out.push(Tok::Sym(c));
                i += 1;
            }
            '"' => {
                let start = i + 1;
                let mut j = start;
                while j < b.len() && b[j] as char != '"' {
                    j += 1;
                }
                if j >= b.len() {
                    return Err(OqlError {
                        msg: "unterminated string".into(),
                    });
                }
                out.push(Tok::Str(src[start..j].to_string()));
                i = j + 1;
            }
            '0'..='9' | '-' => {
                let start = i;
                i += 1;
                while i < b.len() && (b[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let n = src[start..i].parse().map_err(|_| OqlError {
                    msg: format!("bad int {:?}", &src[start..i]),
                })?;
                out.push(Tok::Int(n));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < b.len() && ((b[i] as char).is_ascii_alphanumeric() || b[i] as char == '_')
                {
                    i += 1;
                }
                out.push(Tok::Ident(src[start..i].to_string()));
            }
            other => {
                return Err(OqlError {
                    msg: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(out)
}

struct P {
    toks: Vec<Tok>,
    pos: usize,
    /// Variables bound by enclosing `from` clauses.
    scope: BTreeSet<String>,
}

impl P {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, OqlError> {
        Err(OqlError { msg: msg.into() })
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn eat_sym(&mut self, c: char) -> bool {
        if self.peek() == Some(&Tok::Sym(c)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, c: char) -> Result<(), OqlError> {
        if self.eat_sym(c) {
            Ok(())
        } else {
            self.err(format!("expected {c:?}, found {:?}", self.peek()))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Tok::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), OqlError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected {kw:?}, found {:?}", self.peek()))
        }
    }

    fn ident(&mut self) -> Result<String, OqlError> {
        match self.toks.get(self.pos).cloned() {
            Some(Tok::Ident(s)) => {
                self.pos += 1;
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other:?}")),
        }
    }

    /// `select e from x in C [where p]` — lowered to
    /// `app(λx. e)(sel(λx. p)(C))` (or without the `sel` when no `where`).
    fn select(&mut self) -> Result<Expr, OqlError> {
        self.expect_kw("select")?;
        // The projection references the from-variable, so parse clauses out
        // of order: find `from` first by snapshotting.
        let proj_start = self.pos;
        let mut depth = 0usize;
        // Skip to matching top-level `from`.
        loop {
            match self.toks.get(self.pos) {
                None => return self.err("select without from"),
                Some(Tok::Sym('(')) | Some(Tok::Sym('[')) => {
                    depth += 1;
                    self.pos += 1;
                }
                Some(Tok::Sym(')')) | Some(Tok::Sym(']')) => {
                    if depth == 0 {
                        return self.err("select without from");
                    }
                    depth -= 1;
                    self.pos += 1;
                }
                Some(Tok::Ident(s)) if depth == 0 && s.eq_ignore_ascii_case("from") => {
                    break;
                }
                Some(Tok::Ident(s)) if depth == 0 && s.eq_ignore_ascii_case("select") => {
                    // A nested select inside the projection without parens
                    // would be ambiguous; require parentheses.
                    return self.err("parenthesize nested select in projection");
                }
                _ => self.pos += 1,
            }
        }
        let from_pos = self.pos;
        self.pos += 1; // consume `from`
        let var = self.ident()?;
        self.expect_kw("in")?;
        let source = self.expr()?;
        let filter = if self.eat_kw("where") {
            self.scope.insert(var.clone());
            let p = self.expr()?;
            Some(p)
        } else {
            None
        };
        let end_pos = self.pos;
        // Now parse the projection with the variable in scope.
        self.pos = proj_start;
        self.scope.insert(var.clone());
        let proj = self.expr()?;
        if self.pos != from_pos {
            return self.err("trailing tokens in select projection");
        }
        self.scope.remove(&var);
        self.pos = end_pos;

        let mut src = source;
        if let Some(p) = filter {
            src = Expr::sel(Lambda::new(&var, p), src);
        }
        Ok(Expr::app(Lambda::new(&var, proj), src))
    }

    fn expr(&mut self) -> Result<Expr, OqlError> {
        let mut a = self.and_expr()?;
        while self.eat_kw("or") {
            let b = self.and_expr()?;
            a = Expr::Or(Box::new(a), Box::new(b));
        }
        Ok(a)
    }

    fn and_expr(&mut self) -> Result<Expr, OqlError> {
        let mut a = self.cmp_expr()?;
        while self.eat_kw("and") {
            let b = self.cmp_expr()?;
            a = Expr::And(Box::new(a), Box::new(b));
        }
        Ok(a)
    }

    fn cmp_expr(&mut self) -> Result<Expr, OqlError> {
        let a = self.atom()?;
        let op = match self.peek() {
            Some(Tok::Sym('=')) => Some(CmpOp::Eq),
            Some(Tok::Sym('<')) => Some(CmpOp::Lt),
            Some(Tok::Sym('>')) => Some(CmpOp::Gt),
            Some(Tok::Leq) => Some(CmpOp::Leq),
            Some(Tok::Geq) => Some(CmpOp::Geq),
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("in") => Some(CmpOp::In),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let b = self.atom()?;
            return Ok(Expr::cmp(op, a, b));
        }
        Ok(a)
    }

    fn atom(&mut self) -> Result<Expr, OqlError> {
        match self.peek().cloned() {
            Some(Tok::Int(n)) => {
                self.pos += 1;
                Ok(Expr::Lit(Value::Int(n)))
            }
            Some(Tok::Str(s)) => {
                self.pos += 1;
                Ok(Expr::Lit(Value::str(&s)))
            }
            Some(Tok::Sym('(')) => {
                self.pos += 1;
                let e = if matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("select"))
                {
                    self.select()?
                } else {
                    self.expr()?
                };
                self.expect_sym(')')?;
                Ok(e)
            }
            Some(Tok::Sym('[')) => {
                self.pos += 1;
                let a = self.expr()?;
                self.expect_sym(',')?;
                let b = self.expr()?;
                self.expect_sym(']')?;
                Ok(Expr::pair(a, b))
            }
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("not") => {
                self.pos += 1;
                let e = self.cmp_expr()?;
                Ok(Expr::Not(Box::new(e)))
            }
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("select") => self.select(),
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("flatten") => {
                self.pos += 1;
                self.expect_sym('(')?;
                let e = if matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("select"))
                {
                    self.select()?
                } else {
                    self.expr()?
                };
                self.expect_sym(')')?;
                Ok(Expr::Flatten(Box::new(e)))
            }
            Some(Tok::Ident(_)) => {
                let head = self.ident()?;
                let mut e = if self.scope.contains(&head) {
                    Expr::var(&head)
                } else {
                    Expr::extent(&head)
                };
                while self.eat_sym('.') {
                    let attr = self.ident()?;
                    e = e.attr(&attr);
                }
                Ok(e)
            }
            other => self.err(format!("expected expression, found {other:?}")),
        }
    }
}

/// Parse an OQL query and lower it to AQUA.
pub fn parse_oql(src: &str) -> Result<Expr, OqlError> {
    let mut p = P {
        toks: lex(src)?,
        pos: 0,
        scope: BTreeSet::new(),
    };
    let e = if matches!(p.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("select")) {
        p.select()?
    } else {
        p.expr()?
    };
    if p.pos != p.toks.len() {
        return p.err("trailing input");
    }
    Ok(e)
}

/// Parse OQL and translate all the way to a KOLA query.
///
/// ```
/// let q = kola_frontend::oql_to_kola(
///     "select p.age from p in P where p.age > 25").unwrap();
/// assert_eq!(
///     q.to_string(),
///     "iterate(Kp(T), age) . iterate(gt @ (age, Kf(25)), id) ! P",
/// );
/// ```
pub fn oql_to_kola(src: &str) -> Result<kola::term::Query, OqlError> {
    let aqua = parse_oql(src)?;
    crate::to_kola::translate_query(&aqua).map_err(|e| OqlError {
        msg: format!("translation: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_select() {
        let e = parse_oql("select p.age from p in P").unwrap();
        assert_eq!(e.to_string(), "app(\\p. p.age)(P)");
    }

    #[test]
    fn select_with_where() {
        let e = parse_oql("select p.age from p in P where p.age > 25").unwrap();
        assert_eq!(e.to_string(), "app(\\p. p.age)(sel(\\p. p.age > 25)(P))");
    }

    #[test]
    fn nested_select_in_projection() {
        // The garage-ish query: per person, their children's cities.
        let e = parse_oql("select [p, (select c.age from c in p.child)] from p in P").unwrap();
        assert_eq!(e.to_string(), "app(\\p. [p, app(\\c. c.age)(p.child)])(P)");
    }

    #[test]
    fn scoping_extent_vs_variable() {
        // `q` is not bound: treated as an extent.
        let e = parse_oql("select q from p in P").unwrap();
        assert_eq!(e.to_string(), "app(\\p. q)(P)");
    }

    #[test]
    fn booleans_and_comparisons() {
        let e = parse_oql("select p from p in P where p.age > 18 and not p.age > 65").unwrap();
        assert_eq!(
            e.to_string(),
            "app(\\p. p)(sel(\\p. (p.age > 18 and (not p.age > 65)))(P))"
        );
    }

    #[test]
    fn flatten_and_membership() {
        let e = parse_oql("flatten(select p.grgs from p in P where v in p.cars)").unwrap();
        assert!(e.to_string().starts_with("flatten("), "{e}");
    }

    #[test]
    fn full_pipeline_to_kola() {
        let q = oql_to_kola("select p.age from p in P where p.age > 25").unwrap();
        assert_eq!(
            q.to_string(),
            "iterate(Kp(T), age) . iterate(gt @ (age, Kf(25)), id) ! P"
        );
    }

    #[test]
    fn garage_query_in_oql() {
        let q = oql_to_kola(
            "select [v, flatten(select p.grgs from p in P where v in p.cars)] \
             from v in V",
        )
        .unwrap();
        assert_eq!(q, kola_rewrite_kg1());
    }

    fn kola_rewrite_kg1() -> kola::term::Query {
        kola::parse::parse_query(
            "iterate(Kp(T), (id, \
                flat . \
                iter(Kp(T), grgs . pi2) . \
                (id, iter(in @ (pi1, cars . pi2), pi2) . \
                (id, Kf(P))))) ! V",
        )
        .unwrap()
    }

    #[test]
    fn errors() {
        assert!(parse_oql("select p.age").is_err());
        assert!(parse_oql("select from p in P").is_err());
        assert!(parse_oql("select p from p in P extra").is_err());
        assert!(parse_oql("select p from p in P where").is_err());
    }
}
