// Command quickstart is the smallest end-to-end FliX program: it builds a
// tiny collection of two linked XML documents through the public API,
// indexes it with the default Hybrid configuration, and runs one
// descendants query plus one connection test.
package main

import (
	"fmt"
	"log"

	flix "repro"
)

func main() {
	// A bibliography document with two articles; the second one links to
	// a paper in another document.
	coll := flix.NewCollection()

	bib := coll.NewDocument("bib.xml")
	bibRoot := bib.Enter("bib", "")
	art1 := bib.Enter("article", "")
	bib.AddLeaf("author", "C. Mohan")
	bib.AddLeaf("title", "ARIES")
	bib.Leave()
	art2 := bib.Enter("article", "")
	bib.AddLeaf("title", "Follow-up")
	cite := bib.AddLeaf("cite", "")
	bib.Leave()
	bib.Leave()
	bib.Close()

	ext := coll.NewDocument("hopi.xml")
	paper := ext.Enter("paper", "")
	ext.AddLeaf("title", "HOPI: An Efficient Connection Index")
	ext.Leave()
	ext.Close()

	// An inter-document link (like an XLink href) and an intra-document
	// citation (like an idref).
	coll.AddLink(cite, paper, flix.EdgeInterLink)
	coll.AddLink(art2, art1, flix.EdgeIntraLink)
	coll.Freeze()

	fmt.Println("collection:", flix.ComputeStats(coll))

	ix, err := flix.Build(coll, flix.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("index:", ix.Describe())

	// bib//title finds every title reachable from the bib element —
	// including the one in the linked document — in ascending distance.
	fmt.Println("\nbib//title:")
	ix.Descendants(bibRoot, "title", flix.Options{}, func(r flix.Result) bool {
		fmt.Printf("  %-40q dist=%d\n", coll.Text(r.Node), r.Dist)
		return true
	})

	// Connection test: is the external paper reachable from the bib?
	if d, ok := ix.Connected(bibRoot, paper, 0); ok {
		fmt.Printf("\nbib reaches the HOPI paper via a path of length %d\n", d)
	}
	if _, ok := ix.Connected(paper, bibRoot, 0); !ok {
		fmt.Println("the HOPI paper does not reach back (links are directed)")
	}
}
