//! # sofos-rewrite — answering facet queries from materialized views
//!
//! Implements the paper's §3.2: "When answering a query, Sofos identifies
//! the best view to adopt and translates the input query Q into a query Q′
//! in the expanded RDF graph G+ targeting the data of the selected view. In
//! practice, the translation straightforwardly substitutes aggregate
//! variables with the blank nodes representing the aggregation and
//! reformulates triple patterns accordingly."
//!
//! Pipeline:
//! 1. [`analyze_query`] checks that `Q` targets the facet (same pattern `P`,
//!    grouping over facet dimensions, one aggregate over the measure, extra
//!    `FILTER`s over dimensions only) and extracts its *required mask* —
//!    grouping dims ∪ filter dims;
//! 2. [`best_view`] picks the smallest materialized view covering the mask
//!    (by row count — the relational heuristic whose graph-side fidelity
//!    SOFOS is built to interrogate);
//! 3. [`rewrite_query`] emits `Q′` over the view's named graph, re-deriving
//!    the aggregate from the view's distributive components (SUM of sums,
//!    SUM of counts, MIN of minima, ...; AVG = SUM(sums)/SUM(counts)).
//!
//! The serving engine (`sofos_core::Engine::query`) runs these steps for
//! every query, in both of its backends; a query that fails step 1, or
//! that no view covers in step 2, runs unchanged on the base graph.

use sofos_cube::{AggOp, Facet, ViewMask};
use sofos_rdf::vocab::sofos;
use sofos_rdf::Iri;
use sofos_sparql::{
    Aggregate, ArithOp, Expr, GraphSpec, GroupPattern, PatternElement, PatternTerm, Query,
    SelectItem, TriplePattern,
};
use std::fmt;

/// Why a query cannot be rewritten (it then runs on the base graph).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewriteError {
    /// The query's pattern does not match the facet's pattern `P`.
    PatternMismatch(String),
    /// The query groups by a variable that is not a facet dimension.
    UnknownGroupVar(String),
    /// The query has no (or more than one) aggregate over the measure.
    BadAggregate(String),
    /// A filter references a non-dimension variable.
    FilterOutsideDimensions(String),
    /// The aggregate cannot be derived from the facet's materialized
    /// components (e.g. AVG query over a SUM-only facet).
    UnderivableAggregate {
        /// The aggregate the query asked for.
        requested: AggOp,
        /// The facet's aggregate (determines stored components).
        available: AggOp,
    },
    /// Query uses a feature the rewriter does not handle (DISTINCT/HAVING).
    Unsupported(&'static str),
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::PatternMismatch(why) => write!(f, "pattern mismatch: {why}"),
            RewriteError::UnknownGroupVar(v) => {
                write!(f, "grouping variable ?{v} is not a facet dimension")
            }
            RewriteError::BadAggregate(why) => write!(f, "bad aggregate: {why}"),
            RewriteError::FilterOutsideDimensions(v) => {
                write!(f, "filter references non-dimension variable ?{v}")
            }
            RewriteError::UnderivableAggregate {
                requested,
                available,
            } => write!(
                f,
                "{requested} cannot be derived from views materialized for {available}"
            ),
            RewriteError::Unsupported(what) => write!(f, "unsupported feature: {what}"),
        }
    }
}

impl std::error::Error for RewriteError {}

/// The distilled structure of a facet query.
#[derive(Debug, Clone)]
pub struct QueryAnalysis {
    /// Dimensions the query groups by.
    pub group_mask: ViewMask,
    /// Dimensions referenced by extra filters.
    pub filter_mask: ViewMask,
    /// `group_mask ∪ filter_mask` — a view must cover this to apply.
    pub required: ViewMask,
    /// The query's aggregate operator.
    pub agg: AggOp,
    /// Alias of the aggregate output column.
    pub value_alias: String,
    /// Extra filters (beyond the facet pattern), all over dimensions.
    pub filters: Vec<Expr>,
    /// Pass-through `ORDER BY`.
    pub order_by: Vec<sofos_sparql::OrderCond>,
    /// Pass-through `LIMIT`.
    pub limit: Option<usize>,
    /// Pass-through `OFFSET`.
    pub offset: Option<usize>,
}

/// Check that `query` targets `facet` and extract its structure.
pub fn analyze_query(facet: &Facet, query: &Query) -> Result<QueryAnalysis, RewriteError> {
    if query.distinct {
        return Err(RewriteError::Unsupported("DISTINCT"));
    }
    if query.having.is_some() {
        return Err(RewriteError::Unsupported("HAVING"));
    }
    if query.wildcard {
        return Err(RewriteError::Unsupported("SELECT *"));
    }

    // The query pattern must be the facet pattern plus extra FILTERs.
    let mut extra_filters: Vec<Expr> = Vec::new();
    let mut base_elements: Vec<&PatternElement> = Vec::new();
    for element in &query.pattern.elements {
        match element {
            PatternElement::Filter(e) => extra_filters.push(e.clone()),
            other => base_elements.push(other),
        }
    }
    let mut facet_filters: Vec<&Expr> = Vec::new();
    let mut facet_base: Vec<&PatternElement> = Vec::new();
    for element in &facet.pattern.elements {
        match element {
            PatternElement::Filter(e) => facet_filters.push(e),
            other => facet_base.push(other),
        }
    }
    if base_elements.len() != facet_base.len()
        || base_elements.iter().zip(&facet_base).any(|(a, b)| *a != *b)
    {
        return Err(RewriteError::PatternMismatch(
            "triple blocks differ from the facet pattern".into(),
        ));
    }
    // Filters that are part of the facet pattern itself are not "extra".
    extra_filters.retain(|e| !facet_filters.contains(&e));

    // Grouping mask.
    let mut group_mask = ViewMask::APEX;
    for var in &query.group_by {
        match facet.dim_index(var) {
            Some(i) => group_mask = group_mask.with(i),
            None => return Err(RewriteError::UnknownGroupVar(var.clone())),
        }
    }

    // Filters must stay within dimensions.
    let mut filter_mask = ViewMask::APEX;
    for filter in &extra_filters {
        for var in filter.variables() {
            match facet.dim_index(&var) {
                Some(i) => filter_mask = filter_mask.with(i),
                None => return Err(RewriteError::FilterOutsideDimensions(var)),
            }
        }
    }

    // Exactly one aggregate select item over the measure.
    let mut agg_item: Option<(AggOp, String)> = None;
    for item in &query.select {
        match item {
            SelectItem::Var(_) => {}
            SelectItem::Expr { expr, alias } => {
                let Expr::Aggregate(aggregate) = expr else {
                    return Err(RewriteError::BadAggregate(
                        "projected expression is not a plain aggregate".into(),
                    ));
                };
                if agg_item.is_some() {
                    return Err(RewriteError::BadAggregate(
                        "more than one aggregate in SELECT".into(),
                    ));
                }
                let op = classify_aggregate(facet, aggregate)?;
                agg_item = Some((op, alias.clone()));
            }
        }
    }
    let Some((agg, value_alias)) = agg_item else {
        return Err(RewriteError::BadAggregate("no aggregate in SELECT".into()));
    };

    // Derivability: the query aggregate's components must be materialized.
    let available = facet.agg.components();
    if !agg.components().iter().all(|c| available.contains(c)) {
        return Err(RewriteError::UnderivableAggregate {
            requested: agg,
            available: facet.agg,
        });
    }

    Ok(QueryAnalysis {
        group_mask,
        filter_mask,
        required: group_mask.union(filter_mask),
        agg,
        value_alias,
        filters: extra_filters,
        order_by: query.order_by.clone(),
        limit: query.limit,
        offset: query.offset,
    })
}

fn classify_aggregate(facet: &Facet, aggregate: &Aggregate) -> Result<AggOp, RewriteError> {
    let op = match aggregate {
        Aggregate::Count {
            distinct: false,
            expr: None,
        } => return Ok(AggOp::Count),
        Aggregate::Count { distinct: true, .. }
        | Aggregate::Sum { distinct: true, .. }
        | Aggregate::Avg { distinct: true, .. } => {
            return Err(RewriteError::BadAggregate(
                "DISTINCT aggregates are not derivable from views".into(),
            ))
        }
        Aggregate::Count { expr: Some(e), .. } => {
            check_measure(facet, e)?;
            AggOp::Count
        }
        Aggregate::Sum { expr, .. } => {
            check_measure(facet, expr)?;
            AggOp::Sum
        }
        Aggregate::Avg { expr, .. } => {
            check_measure(facet, expr)?;
            AggOp::Avg
        }
        Aggregate::Min { expr } => {
            check_measure(facet, expr)?;
            AggOp::Min
        }
        Aggregate::Max { expr } => {
            check_measure(facet, expr)?;
            AggOp::Max
        }
    };
    Ok(op)
}

fn check_measure(facet: &Facet, expr: &Expr) -> Result<(), RewriteError> {
    match expr {
        Expr::Var(v) if *v == facet.measure => Ok(()),
        other => Err(RewriteError::BadAggregate(format!(
            "aggregate argument {other:?} is not the facet measure ?{}",
            facet.measure
        ))),
    }
}

/// Pick the best applicable view: the covering view with the fewest rows
/// (ties broken by mask for determinism). `views` pairs each materialized
/// mask with its row count.
pub fn best_view(views: &[(ViewMask, usize)], required: ViewMask) -> Option<ViewMask> {
    views
        .iter()
        .filter(|(mask, _)| mask.covers(required))
        .min_by_key(|(mask, rows)| (*rows, mask.0))
        .map(|(mask, _)| *mask)
}

/// Build `Q′`: the rewritten query over the materialized view's graph.
pub fn rewrite_query(facet: &Facet, analysis: &QueryAnalysis, view: ViewMask) -> Query {
    debug_assert!(view.covers(analysis.required));
    let graph_iri = Iri::new_unchecked(sofos::view_graph(&facet.id, view.0));
    let obs = PatternTerm::var("__obs");

    // Fetch only the dimensions the query needs: group dims + filter dims.
    // Each observation carries exactly one triple per dimension, so this
    // preserves row multiplicity regardless of which subset we match.
    let mut patterns: Vec<TriplePattern> = Vec::new();
    for d in analysis.required.dims() {
        patterns.push(TriplePattern::new(
            obs.clone(),
            PatternTerm::iri(sofos::dim(d)),
            PatternTerm::var(facet.dimensions[d].var.clone()),
        ));
    }
    // Fetch the needed components.
    let (primary, secondary) = component_predicates(analysis.agg);
    patterns.push(TriplePattern::new(
        obs.clone(),
        PatternTerm::iri(primary),
        PatternTerm::var("__c0"),
    ));
    if let Some(pred) = secondary {
        patterns.push(TriplePattern::new(
            obs.clone(),
            PatternTerm::iri(pred),
            PatternTerm::var("__c1"),
        ));
    }

    let mut elements = vec![PatternElement::Triples {
        graph: GraphSpec::Named(graph_iri),
        patterns,
    }];
    for filter in &analysis.filters {
        elements.push(PatternElement::Filter(filter.clone()));
    }

    // Re-aggregation expression over the components.
    let c0 = Box::new(Expr::var("__c0"));
    let value_expr = match analysis.agg {
        AggOp::Sum | AggOp::Count => Expr::Aggregate(Aggregate::Sum {
            distinct: false,
            expr: c0,
        }),
        AggOp::Min => Expr::Aggregate(Aggregate::Min { expr: c0 }),
        AggOp::Max => Expr::Aggregate(Aggregate::Max { expr: c0 }),
        AggOp::Avg => Expr::Arith(
            ArithOp::Div,
            Box::new(Expr::Aggregate(Aggregate::Sum {
                distinct: false,
                expr: c0,
            })),
            Box::new(Expr::Aggregate(Aggregate::Sum {
                distinct: false,
                expr: Box::new(Expr::var("__c1")),
            })),
        ),
    };

    let mut select: Vec<SelectItem> = Vec::new();
    let mut group_by: Vec<String> = Vec::new();
    for d in analysis.group_mask.dims() {
        let var = facet.dimensions[d].var.clone();
        select.push(SelectItem::Var(var.clone()));
        group_by.push(var);
    }
    select.push(SelectItem::Expr {
        expr: value_expr,
        alias: analysis.value_alias.clone(),
    });

    Query {
        select,
        wildcard: false,
        distinct: false,
        pattern: GroupPattern { elements },
        group_by,
        having: None,
        order_by: analysis.order_by.clone(),
        limit: analysis.limit,
        offset: analysis.offset,
    }
}

fn component_predicates(agg: AggOp) -> (&'static str, Option<&'static str>) {
    match agg {
        AggOp::Sum => (sofos::SUM, None),
        AggOp::Count => (sofos::COUNT, None),
        AggOp::Avg => (sofos::SUM, Some(sofos::COUNT)),
        AggOp::Min => (sofos::MIN, None),
        AggOp::Max => (sofos::MAX, None),
    }
}

/// Did the analysis ask for the aggregate value only (apex query)?
pub fn is_apex_query(analysis: &QueryAnalysis) -> bool {
    analysis.group_mask == ViewMask::APEX
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofos_cube::{facet_query, Dimension};
    use sofos_sparql::CompareOp;

    const NS: &str = "http://e/";

    fn sample_facet(agg: AggOp) -> Facet {
        let pattern = GroupPattern::triples(vec![
            TriplePattern::new(
                PatternTerm::var("o"),
                PatternTerm::iri(format!("{NS}country")),
                PatternTerm::var("country"),
            ),
            TriplePattern::new(
                PatternTerm::var("o"),
                PatternTerm::iri(format!("{NS}lang")),
                PatternTerm::var("lang"),
            ),
            TriplePattern::new(
                PatternTerm::var("o"),
                PatternTerm::iri(format!("{NS}pop")),
                PatternTerm::var("pop"),
            ),
        ]);
        Facet::new(
            "pop",
            vec![Dimension::new("country"), Dimension::new("lang")],
            pattern,
            "pop",
            agg,
        )
        .unwrap()
    }

    fn lang_filter() -> Expr {
        Expr::Compare(
            CompareOp::Eq,
            Box::new(Expr::var("lang")),
            Box::new(Expr::Const(sofos_rdf::Term::literal_str("french"))),
        )
    }

    #[test]
    fn analyzes_facet_query() {
        let facet = sample_facet(AggOp::Sum);
        let q = facet_query(
            &facet,
            ViewMask::from_dims(&[0]),
            AggOp::Sum,
            vec![lang_filter()],
        );
        let a = analyze_query(&facet, &q).expect("analyzable");
        assert_eq!(a.group_mask, ViewMask::from_dims(&[0]));
        assert_eq!(a.filter_mask, ViewMask::from_dims(&[1]));
        assert_eq!(a.required, ViewMask::from_dims(&[0, 1]));
        assert_eq!(a.agg, AggOp::Sum);
        assert_eq!(a.value_alias, "value");
        assert_eq!(a.filters.len(), 1);
        assert!(!is_apex_query(&a));
    }

    #[test]
    fn apex_query_detection() {
        let facet = sample_facet(AggOp::Sum);
        let q = facet_query(&facet, ViewMask::APEX, AggOp::Sum, vec![]);
        let a = analyze_query(&facet, &q).unwrap();
        assert!(is_apex_query(&a));
    }

    #[test]
    fn rejects_foreign_pattern() {
        let facet = sample_facet(AggOp::Sum);
        let q = sofos_sparql::parse_query(
            "SELECT (SUM(?pop) AS ?value) WHERE { ?o <http://other/p> ?pop }",
        )
        .unwrap();
        assert!(matches!(
            analyze_query(&facet, &q),
            Err(RewriteError::PatternMismatch(_))
        ));
    }

    #[test]
    fn rejects_filter_on_measure() {
        let facet = sample_facet(AggOp::Sum);
        let filter = Expr::Compare(
            CompareOp::Gt,
            Box::new(Expr::var("pop")),
            Box::new(Expr::int(10)),
        );
        let q = facet_query(&facet, ViewMask::from_dims(&[0]), AggOp::Sum, vec![filter]);
        assert!(matches!(
            analyze_query(&facet, &q),
            Err(RewriteError::FilterOutsideDimensions(v)) if v == "pop"
        ));
    }

    #[test]
    fn derivability_rules() {
        // AVG facet materializes SUM+COUNT ⇒ SUM, COUNT and AVG queries
        // are all derivable; MIN is not.
        let facet = sample_facet(AggOp::Avg);
        for (agg, ok) in [
            (AggOp::Sum, true),
            (AggOp::Count, true),
            (AggOp::Avg, true),
            (AggOp::Min, false),
            (AggOp::Max, false),
        ] {
            let q = facet_query(&facet, ViewMask::from_dims(&[0]), agg, vec![]);
            let result = analyze_query(&facet, &q);
            assert_eq!(result.is_ok(), ok, "{agg}: {result:?}");
        }
        // SUM facet cannot answer AVG.
        let facet = sample_facet(AggOp::Sum);
        let q = facet_query(&facet, ViewMask::from_dims(&[0]), AggOp::Avg, vec![]);
        assert!(matches!(
            analyze_query(&facet, &q),
            Err(RewriteError::UnderivableAggregate { .. })
        ));
    }

    #[test]
    fn best_view_prefers_smallest_covering() {
        let views = [
            (ViewMask::from_dims(&[0, 1]), 100),
            (ViewMask::from_dims(&[0]), 10),
            (ViewMask::from_dims(&[1]), 5),
        ];
        assert_eq!(
            best_view(&views, ViewMask::from_dims(&[0])),
            Some(ViewMask::from_dims(&[0]))
        );
        assert_eq!(
            best_view(&views, ViewMask::from_dims(&[0, 1])),
            Some(ViewMask::from_dims(&[0, 1]))
        );
        assert_eq!(
            best_view(&views, ViewMask::APEX),
            Some(ViewMask::from_dims(&[1]))
        );
        assert_eq!(best_view(&[], ViewMask::APEX), None);
    }

    #[test]
    fn rewrite_targets_view_graph_with_needed_dims_only() {
        let facet = sample_facet(AggOp::Sum);
        let q = facet_query(
            &facet,
            ViewMask::from_dims(&[0]),
            AggOp::Sum,
            vec![lang_filter()],
        );
        let a = analyze_query(&facet, &q).unwrap();
        let view = ViewMask::from_dims(&[0, 1]);
        let rewritten = rewrite_query(&facet, &a, view);

        // Targets the view's named graph.
        let PatternElement::Triples { graph, patterns } = &rewritten.pattern.elements[0] else {
            panic!("first element must be triples");
        };
        assert_eq!(
            *graph,
            GraphSpec::Named(Iri::new_unchecked(sofos::view_graph("pop", view.0)))
        );
        // dims 0 and 1 fetched + 1 component = 3 patterns.
        assert_eq!(patterns.len(), 3);
        // Groups by country, preserves alias.
        assert_eq!(rewritten.group_by, ["country"]);
        assert_eq!(rewritten.select.last().unwrap().name(), "value");
        // Filter preserved.
        assert!(rewritten
            .pattern
            .elements
            .iter()
            .any(|e| matches!(e, PatternElement::Filter(_))));
    }

    #[test]
    fn avg_rewrite_divides_component_sums() {
        let facet = sample_facet(AggOp::Avg);
        let q = facet_query(&facet, ViewMask::from_dims(&[1]), AggOp::Avg, vec![]);
        let a = analyze_query(&facet, &q).unwrap();
        let rewritten = rewrite_query(&facet, &a, ViewMask::full(2));
        let SelectItem::Expr { expr, .. } = rewritten.select.last().unwrap() else {
            panic!("aggregate item expected");
        };
        assert!(matches!(expr, Expr::Arith(ArithOp::Div, _, _)));
        // Rewritten text is valid SPARQL.
        let text = sofos_sparql::query_to_sparql(&rewritten);
        sofos_sparql::parse_query(&text).expect("rewritten query parses");
    }

    #[test]
    fn unsupported_features_are_reported() {
        let facet = sample_facet(AggOp::Sum);
        let mut q = facet_query(&facet, ViewMask::from_dims(&[0]), AggOp::Sum, vec![]);
        q.distinct = true;
        assert!(matches!(
            analyze_query(&facet, &q),
            Err(RewriteError::Unsupported("DISTINCT"))
        ));
    }

    #[test]
    fn modifiers_pass_through() {
        let facet = sample_facet(AggOp::Sum);
        let mut q = facet_query(&facet, ViewMask::from_dims(&[0]), AggOp::Sum, vec![]);
        q.limit = Some(3);
        q.order_by = vec![sofos_sparql::OrderCond {
            expr: Expr::var("value"),
            descending: true,
        }];
        let a = analyze_query(&facet, &q).unwrap();
        let rewritten = rewrite_query(&facet, &a, ViewMask::full(2));
        assert_eq!(rewritten.limit, Some(3));
        assert_eq!(rewritten.order_by.len(), 1);
    }
}
