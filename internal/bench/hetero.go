package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/dblp"
	"repro/internal/xmlgraph"
)

// Region describes one homogeneous part of a mixed collection.
type Region struct {
	// Name labels the region in reports.
	Name string
	// FirstDoc and LastDoc delimit the region's documents [first, last).
	FirstDoc, LastDoc xmlgraph.DocID
	// Start is a representative query-start element inside the region.
	Start xmlgraph.NodeID
	// Tag is a representative element name for start//tag queries.
	Tag string
}

// Mixed is a heterogeneous collection: deep link-free trees (INEX-style
// articles), a DBLP-like citation region, and a densely interlinked Web-like
// region with cycles — the setting of the paper's Figure 1 and the
// adaptivity experiment its future work calls for (§7).
type Mixed struct {
	Coll    *xmlgraph.Collection
	Regions []Region
}

// MixedCollection builds the heterogeneous collection, deterministic in
// seed.  scale multiplies the per-region document counts (scale 1 ≈ 1,600
// documents, ≈70k elements).
func MixedCollection(seed int64, scale int) *Mixed {
	if scale < 1 {
		scale = 1
	}
	rng := rand.New(rand.NewSource(seed))
	coll := xmlgraph.NewCollection()
	m := &Mixed{Coll: coll}

	// Region 1: INEX-style articles — deep trees, no links at all.  The
	// selector should give every document (or merged tree partition) PPO.
	treeFirst := xmlgraph.DocID(coll.NumDocs())
	var treeStart xmlgraph.NodeID
	nTrees := 200 * scale
	for i := 0; i < nTrees; i++ {
		b := coll.NewDocument(fmt.Sprintf("inex%05d.xml", i))
		root := b.Enter("inexarticle", "")
		if i == 0 {
			treeStart = root
		}
		b.AddLeaf("atitle", fmt.Sprintf("Article %d", i))
		sections := 2 + rng.Intn(4)
		for s := 0; s < sections; s++ {
			b.Enter("sec", "")
			b.AddLeaf("st", fmt.Sprintf("Section %d", s))
			for p := 0; p < 2+rng.Intn(5); p++ {
				b.Enter("p", "")
				b.AddLeaf("it", "text")
				b.Leave()
			}
			if rng.Intn(2) == 0 {
				b.Enter("ss1", "")
				b.AddLeaf("p", "nested")
				b.Leave()
			}
			b.Leave()
		}
		b.Leave()
		b.Close()
	}
	m.Regions = append(m.Regions, Region{
		Name:     "inex-trees",
		FirstDoc: treeFirst,
		LastDoc:  xmlgraph.DocID(coll.NumDocs()),
		Start:    treeStart,
		Tag:      "p",
	})

	// Region 2: DBLP-like citation region.
	dblpFirst := xmlgraph.DocID(coll.NumDocs())
	corpus := dblp.Generate(dblp.Params{
		Docs: 1200 * scale, MeanCites: 4.085, MeanExtra: 15.9, Seed: seed + 1,
	})
	corpus.AppendTo(coll)
	m.Regions = append(m.Regions, Region{
		Name:     "dblp-citations",
		FirstDoc: dblpFirst,
		LastDoc:  xmlgraph.DocID(coll.NumDocs()),
		Start:    corpus.Hub(coll),
		Tag:      "article",
	})

	// Region 3: Web-like pages — small documents, dense inter-document
	// links in both directions (cycles), plus intra-document anchors.
	webFirst := xmlgraph.DocID(coll.NumDocs())
	nWeb := 200 * scale
	var webStart xmlgraph.NodeID
	type webDoc struct {
		root    xmlgraph.NodeID
		anchors []xmlgraph.NodeID
	}
	docs := make([]webDoc, nWeb)
	for i := 0; i < nWeb; i++ {
		b := coll.NewDocument(fmt.Sprintf("page%05d.xml", i))
		root := b.Enter("page", "")
		if i == 0 {
			webStart = root
		}
		b.AddLeaf("heading", fmt.Sprintf("Page %d", i))
		var anchors []xmlgraph.NodeID
		for a := 0; a < 2+rng.Intn(4); a++ {
			b.Enter("para", "")
			anchors = append(anchors, b.AddLeaf("anchor", ""))
			b.Leave()
		}
		b.Leave()
		b.Close()
		docs[i] = webDoc{root: root, anchors: anchors}
	}
	for i := 0; i < nWeb; i++ {
		// 3-6 outgoing links per page, any direction (cycles welcome).
		for l := 0; l < 3+rng.Intn(4); l++ {
			target := docs[rng.Intn(nWeb)]
			src := docs[i].anchors[rng.Intn(len(docs[i].anchors))]
			if rng.Intn(4) == 0 {
				// Deep link into another page's anchor.
				coll.AddLink(src, target.anchors[rng.Intn(len(target.anchors))], xmlgraph.EdgeInterLink)
			} else {
				coll.AddLink(src, target.root, xmlgraph.EdgeInterLink)
			}
		}
		// Occasional intra-document anchor reference.
		if rng.Intn(3) == 0 && len(docs[i].anchors) >= 2 {
			coll.AddLink(docs[i].anchors[0], docs[i].anchors[1], xmlgraph.EdgeIntraLink)
		}
	}
	m.Regions = append(m.Regions, Region{
		Name:     "web-pages",
		FirstDoc: webFirst,
		LastDoc:  xmlgraph.DocID(coll.NumDocs()),
		Start:    webStart,
		Tag:      "heading",
	})

	coll.Freeze()
	return m
}
