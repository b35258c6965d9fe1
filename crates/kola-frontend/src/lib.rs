#![warn(missing_docs)]
//! # kola-frontend — OQL surface language and translators into KOLA
//!
//! The paper's \[11\]: translators from OQL and AQUA into the combinator
//! algebra. [`oql`] parses a `select/from/where` subset and lowers it to
//! AQUA; [`to_kola`] compiles AQUA's λ-terms into variable-free KOLA via
//! explicit environments; [`size`] measures the §4.2 O(mn) translation-size
//! claim.
pub mod oql;
pub mod size;
pub mod to_kola;

pub use oql::{oql_to_kola, parse_oql, OqlError};
pub use size::{measure, sweep_query, SizeReport};
pub use to_kola::{translate_query, TranslateError};

/// Parse a request in either surface syntax: OQL is lowered through AQUA
/// to KOLA; anything else is parsed as a KOLA query directly. This is the
/// optimization service's front door — requests arrive as text in
/// whichever notation the client speaks.
///
/// OQL is detected by its two top-level forms: a leading `select`, or a
/// leading `flatten` followed by `(` (KOLA has no `flatten` keyword, and a
/// KOLA primitive is never applied with parentheses). The check looks at
/// the prefix only, so a KOLA request is parsed exactly once.
pub fn parse_any_query(src: &str) -> Result<kola::term::Query, String> {
    let src_t = src.trim_start();
    let keyword = |kw: &str| {
        src_t
            .get(..kw.len())
            .is_some_and(|w| w.eq_ignore_ascii_case(kw))
    };
    let oql = keyword("select")
        || (keyword("flatten") && src_t["flatten".len()..].trim_start().starts_with('('));
    if oql {
        oql_to_kola(src).map_err(|e| format!("oql: {e}"))
    } else {
        kola::parse::parse_query(src).map_err(|e| format!("kola: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::parse_any_query;

    #[test]
    fn routes_by_leading_keyword() {
        let kola = parse_any_query("iterate(Kp(T), age) ! P").unwrap();
        let oql = parse_any_query("select p.age from p in P").unwrap();
        assert_eq!(oql, kola);
        assert!(parse_any_query("  SELECT p.age from p in P").is_ok());
        assert!(parse_any_query("select p.age")
            .unwrap_err()
            .starts_with("oql: "));
        assert!(parse_any_query("age ! ").unwrap_err().starts_with("kola: "));
    }

    #[test]
    fn flatten_at_top_level_is_oql() {
        let src = "flatten(select p.grgs from p in P where p.age > 30)";
        let q = parse_any_query(src).expect("top-level flatten parses as OQL");
        assert_eq!(q, crate::oql_to_kola(src).unwrap());
        assert!(parse_any_query(" Flatten (select p.grgs from p in P)").is_ok());
        // Without the parenthesis `flatten` stays a KOLA primitive name.
        assert!(parse_any_query("flatten ! P").is_ok());
    }
}
