"""XPath templates for the XMark and DBLP corpora, with their weights.

Each list comes with the weights its decks use. The weights put one
template at the centre of the latency distribution, so the median read lands inside one template's cluster
instead of on the steep edge between two (where a small shift in the
mix would move it a lot). Parameter domains are read off the
generated input tree, so every filled query is answerable.
"""

from __future__ import annotations

from typing import List, Tuple

from harness import Template, zipf_weights


def _count(tree, tag: str) -> int:
    return sum(1 for node in tree.preorder() if node.tag == tag)


def xmark_templates(tree) -> Tuple[List[Template], List[float]]:
    people = _count(tree, "person")
    open_auctions = _count(tree, "open_auction")
    regions = [child.tag for child in tree.root.children[0].children]
    items = min(len(region.children) for region in tree.root.children[0].children)
    region_items = tuple(f"{region}/item[{i}]" for region in regions for i in range(1, items + 1))
    # Zipf (s=1.5) weights by rank: the mid-cost template at rank 1
    # holds half the mix, cheap ones at ranks 2, 3 and 6 another 30%,
    # so even when a fifth of the light reads queue behind a heavy one
    # (open loop, or a writer holding the lock) the median stays in the
    # light cluster
    templates = [
        Template("/site/closed_auctions/closed_auction[price > {}]/date", tuple(range(5, 500))),
        Template("/site/people/person[{}]/name", tuple(range(1, people + 1))),
        Template("/site/open_auctions/open_auction[{}]/bidder/increase", tuple(range(1, open_auctions + 1))),
        Template("//person[@id='person{}']/name", tuple(range(people))),
        Template("//item[quantity > {}]/name", tuple(range(0, 5))),
        Template("/site/regions/{}/name", region_items),
        Template("//open_auction[initial > {}]/seller", tuple(range(1, 200))),
        Template("//person/address/city"),
        Template("//bidder/preceding-sibling::bidder"),
        Template("//interest/.."),
        Template("//category/ancestor::site"),
    ]
    return templates, zipf_weights(len(templates), 1.5)


def dblp_templates(tree, backend: str) -> Tuple[List[Template], List[float]]:
    """The DBLP templates with the backend's weights: the templates'
    costs come in a different order on the two backends, so each
    weighting puts the median inside one template's cluster and the
    95th percentile inside the dearest one's."""
    articles = _count(tree, "article")
    inproceedings = _count(tree, "inproceedings")
    authors = tuple(sorted({
        node.children[0].text
        for node in tree.preorder()
        if node.tag == "author" and node.children
    }))
    templates = [
        Template("/dblp/*[year = {}]", tuple(range(1990, 2003))),
        Template("/dblp/article[{}]/title", tuple(range(1, articles + 1))),
        Template("/dblp/inproceedings[{}]/author", tuple(range(1, inproceedings + 1))),
        Template("//title/ancestor::dblp"),
        Template("//inproceedings[year > {}]/title", tuple(range(1990, 2003))),
        Template("//article[author='{}']", authors),
        Template("//author/following-sibling::title"),
        Template("//article[volume > {}]/journal", tuple(range(1, 41))),
    ]
    weights = {
        # sql, cheapest first: positional lookups, ancestor, the year
        # child scan (a third of the mix, holding the median), sibling
        # scan, then three descendant predicates answered with one
        # statement per context node (a quarter, holding the tail)
        "sql": [3.0, 1.0, 1.0, 1.0, 0.75, 0.75, 0.75, 0.75],
        # paged, cheapest first: positional lookups, ancestor, the
        # sibling scan (holding the median), the predicate scans, then
        # the author predicate (a tenth, holding the tail)
        "paged": [1.5, 1.0, 1.0, 1.0, 0.5, 1.0, 3.0, 0.5],
    }[backend]
    return templates, weights
