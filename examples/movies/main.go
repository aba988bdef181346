// Command movies reproduces the motivating scenario of the paper's
// introduction (§1.1): heterogeneous movie data from sources with different
// schemas, searched with a query that carries semantic vagueness (the ~
// operator expanding tags through an ontology) and structural vagueness
// (child steps relaxed to descendants-or-self).
//
// The strict query /movie/actor finds almost nothing; the relaxed query
// //~movie//actor finds the actors of every source, ranked by relevance.
package main

import (
	"fmt"
	"log"
	"strings"

	flix "repro"
)

// Three sources describing movies with incompatible schemas, linked to each
// other: the paper's "schemas widely vary across data sources" setting.
var sources = map[string]string{
	"matrix.xml": `<movie id="m3">
	  <title>Matrix: Revolutions</title>
	  <cast>
	    <actor><name>Keanu Reeves</name></actor>
	    <actor><name>Carrie-Anne Moss</name></actor>
	  </cast>
	  <follows href="matrix2.xml"/>
	</movie>`,
	"matrix2.xml": `<science-fiction>
	  <title>Matrix 3</title>
	  <credits>
	    <people>
	      <actor>Hugo Weaving</actor>
	    </people>
	  </credits>
	</science-fiction>`,
	"speed.xml": `<film>
	  <title>Speed</title>
	  <performer>Keanu Reeves</performer>
	</film>`,
}

// movieOntology mirrors the paper's example: "an ontology for movies could
// state that science-fiction is a special case of a movie".
const movieOntology = `
movie science-fiction 0.8
movie film 0.9
actor performer 0.85
`

func main() {
	loader := flix.NewLoader()
	for name, text := range sources {
		if err := loader.LoadDocument(name, strings.NewReader(text)); err != nil {
			log.Fatal(err)
		}
	}
	coll, err := loader.Finish()
	if err != nil {
		log.Fatal(err)
	}
	ix, err := flix.Build(coll, flix.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	onto, err := flix.ParseOntology(movieOntology)
	if err != nil {
		log.Fatal(err)
	}
	eval := &flix.Evaluator{Index: ix, Ontology: onto}

	run := func(expr string) {
		q, err := flix.ParseQuery(expr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s\n", q)
		matches := eval.EvaluateTopK(q, 0)
		if len(matches) == 0 {
			fmt.Println("  (no results)")
			return
		}
		for _, m := range matches {
			text := coll.Text(m.Node)
			if text == "" {
				// actor elements of matrix.xml keep the name in a child.
				coll.EachChild(m.Node, func(c flix.NodeID) {
					if text == "" {
						text = coll.Text(c)
					}
				})
			}
			fmt.Printf("  %.3f  <%s> %-22q (%s, path length %d)\n",
				m.Score, coll.Tag(m.Node), text,
				coll.Doc(coll.DocOf(m.Node)).Name, m.PathLen)
		}
	}

	// The strict query misses the other schemas entirely.
	run("/movie/actor")

	// Structural vagueness alone: relax / to //.
	q, err := flix.ParseQuery("/movie/actor")
	if err != nil {
		log.Fatal(err)
	}
	relaxed := q.Relax()
	fmt.Printf("\nrelaxing %s to %s", q, relaxed)
	run(relaxed.String())

	// Full vagueness: the paper's //~movie//~actor, plus a content filter.
	run("//~movie//~actor")
	run(`//~movie[text~""]//title[text~"matrix"]`)
}
