//! SPARQL query generation for views and facet queries.

use crate::facet::{AggOp, Facet, MaterialComponent};
use crate::mask::ViewMask;
use sofos_rdf::vocab::sofos;
use sofos_sparql::{Aggregate, Expr, PatternElement, Query, SelectItem};

/// Column alias of the materialized SUM component.
pub const SUM_ALIAS: &str = "agg_sum";
/// Column alias of the materialized COUNT component.
pub const COUNT_ALIAS: &str = "agg_count";
/// Column alias of the materialized MIN component.
pub const MIN_ALIAS: &str = "agg_min";
/// Column alias of the materialized MAX component.
pub const MAX_ALIAS: &str = "agg_max";
/// Column alias of the aggregate value in workload queries.
pub const VALUE_ALIAS: &str = "value";

/// The select alias for a material component.
pub fn component_alias(c: MaterialComponent) -> &'static str {
    match c {
        MaterialComponent::Sum => SUM_ALIAS,
        MaterialComponent::Count => COUNT_ALIAS,
        MaterialComponent::Min => MIN_ALIAS,
        MaterialComponent::Max => MAX_ALIAS,
    }
}

/// The predicate attaching a material component to a view observation
/// (`sofos:sum`, `sofos:count`, `sofos:min`, `sofos:max`).
pub fn component_predicate(c: MaterialComponent) -> &'static str {
    match c {
        MaterialComponent::Sum => sofos::SUM,
        MaterialComponent::Count => sofos::COUNT,
        MaterialComponent::Min => sofos::MIN,
        MaterialComponent::Max => sofos::MAX,
    }
}

fn component_aggregate(c: MaterialComponent, measure: &str) -> Aggregate {
    let expr = Box::new(Expr::var(measure));
    match c {
        MaterialComponent::Sum => Aggregate::Sum {
            distinct: false,
            expr,
        },
        MaterialComponent::Count => Aggregate::Count {
            distinct: false,
            expr: Some(expr),
        },
        MaterialComponent::Min => Aggregate::Min { expr },
        MaterialComponent::Max => Aggregate::Max { expr },
    }
}

/// The query the materializer evaluates to populate view `mask`:
///
/// `SELECT dims(mask) components(agg) WHERE P GROUP BY dims(mask)`
///
/// The components are the distributive parts of the facet's aggregate
/// ([`AggOp::components`]); for AVG both SUM and COUNT are emitted so that
/// coarser re-aggregation stays exact.
pub fn view_query(facet: &Facet, mask: ViewMask) -> Query {
    let mut select: Vec<SelectItem> = Vec::new();
    let mut group_by: Vec<String> = Vec::new();
    for d in mask.dims() {
        if d < facet.dim_count() {
            let var = facet.dimensions[d].var.clone();
            select.push(SelectItem::Var(var.clone()));
            group_by.push(var);
        }
    }
    for &component in facet.agg.components() {
        select.push(SelectItem::Expr {
            expr: Expr::Aggregate(component_aggregate(component, &facet.measure)),
            alias: component_alias(component).to_string(),
        });
    }
    Query {
        select,
        wildcard: false,
        distinct: false,
        pattern: facet.pattern.clone(),
        group_by,
        having: None,
        order_by: Vec::new(),
        limit: None,
        offset: None,
    }
}

/// A workload query against a facet: group by the dimensions in `mask`,
/// aggregate the measure with `agg`, optionally restricted by `filters`
/// (the paper: queries "can be further specialized by also introducing
/// additional FILTER conditions").
pub fn facet_query(facet: &Facet, mask: ViewMask, agg: AggOp, filters: Vec<Expr>) -> Query {
    let mut select: Vec<SelectItem> = Vec::new();
    let mut group_by: Vec<String> = Vec::new();
    for d in mask.dims() {
        if d < facet.dim_count() {
            let var = facet.dimensions[d].var.clone();
            select.push(SelectItem::Var(var.clone()));
            group_by.push(var);
        }
    }
    let measure = Box::new(Expr::var(facet.measure.clone()));
    let aggregate = match agg {
        AggOp::Sum => Aggregate::Sum {
            distinct: false,
            expr: measure,
        },
        AggOp::Avg => Aggregate::Avg {
            distinct: false,
            expr: measure,
        },
        AggOp::Count => Aggregate::Count {
            distinct: false,
            expr: Some(measure),
        },
        AggOp::Min => Aggregate::Min { expr: measure },
        AggOp::Max => Aggregate::Max { expr: measure },
    };
    select.push(SelectItem::Expr {
        expr: Expr::Aggregate(aggregate),
        alias: VALUE_ALIAS.to_string(),
    });

    let mut pattern = facet.pattern.clone();
    for filter in filters {
        pattern.elements.push(PatternElement::Filter(filter));
    }

    Query {
        select,
        wildcard: false,
        distinct: false,
        pattern,
        group_by,
        having: None,
        order_by: Vec::new(),
        limit: None,
        offset: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facet::Dimension;
    use sofos_sparql::{query_to_sparql, CompareOp, GroupPattern, PatternTerm, TriplePattern};

    fn facet(agg: AggOp) -> Facet {
        let pattern = GroupPattern::triples(vec![
            TriplePattern::new(
                PatternTerm::var("o"),
                PatternTerm::iri("http://e/country"),
                PatternTerm::var("country"),
            ),
            TriplePattern::new(
                PatternTerm::var("o"),
                PatternTerm::iri("http://e/lang"),
                PatternTerm::var("lang"),
            ),
            TriplePattern::new(
                PatternTerm::var("o"),
                PatternTerm::iri("http://e/pop"),
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

    #[test]
    fn view_query_groups_by_mask_dims() {
        let f = facet(AggOp::Sum);
        let q = view_query(&f, ViewMask::from_dims(&[0]));
        assert_eq!(q.group_by, ["country"]);
        assert_eq!(q.select.len(), 2); // country + agg_sum
        assert_eq!(q.select[1].name(), SUM_ALIAS);
    }

    #[test]
    fn avg_views_store_sum_and_count() {
        let f = facet(AggOp::Avg);
        let q = view_query(&f, ViewMask::from_dims(&[0, 1]));
        let names: Vec<&str> = q.select.iter().map(|i| i.name()).collect();
        assert_eq!(names, ["country", "lang", SUM_ALIAS, COUNT_ALIAS]);
    }

    #[test]
    fn apex_view_has_no_group_by() {
        let f = facet(AggOp::Sum);
        let q = view_query(&f, ViewMask::APEX);
        assert!(q.group_by.is_empty());
        assert_eq!(q.select.len(), 1);
    }

    #[test]
    fn generated_queries_render_and_reparse() {
        let f = facet(AggOp::Avg);
        for mask in [
            ViewMask::APEX,
            ViewMask::from_dims(&[0]),
            ViewMask::from_dims(&[0, 1]),
        ] {
            let q = view_query(&f, mask);
            let text = query_to_sparql(&q);
            let back = sofos_sparql::parse_query(&text)
                .unwrap_or_else(|e| panic!("view query must reparse: {text}\n{e}"));
            assert_eq!(q, back);
        }
    }

    #[test]
    fn facet_query_appends_filters() {
        let f = facet(AggOp::Sum);
        let filter = Expr::Compare(
            CompareOp::Eq,
            Box::new(Expr::var("lang")),
            Box::new(Expr::Const(sofos_rdf::Term::literal_str("French"))),
        );
        let q = facet_query(&f, ViewMask::from_dims(&[0]), AggOp::Sum, vec![filter]);
        assert_eq!(q.group_by, ["country"]);
        assert_eq!(q.select.last().unwrap().name(), VALUE_ALIAS);
        assert!(q
            .pattern
            .elements
            .iter()
            .any(|e| matches!(e, PatternElement::Filter(_))));
    }

    #[test]
    fn facet_query_supports_all_aggs() {
        let f = facet(AggOp::Sum);
        for agg in AggOp::ALL {
            let q = facet_query(&f, ViewMask::from_dims(&[1]), agg, vec![]);
            let text = query_to_sparql(&q);
            assert!(text.contains(agg.keyword()), "{text}");
        }
    }

    #[test]
    fn mask_bits_beyond_dims_are_ignored() {
        let f = facet(AggOp::Sum);
        let q = view_query(&f, ViewMask(0b1111)); // only 2 dims exist
        assert_eq!(q.group_by, ["country", "lang"]);
    }
}
