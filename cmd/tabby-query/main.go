// Command tabby-query runs Cypher-lite queries against a code property
// graph previously saved by `tabby -save` — the "store once, query many
// times" workflow the paper builds on Neo4j (§II-B, RQ4).
//
//	tabby-query -snapshot cpg.tsnap -query 'MATCH (m:Method {IS_SINK: true}) RETURN m.NAME'
//	tabby-query -snapshot cpg.tsnap          # interactive REPL on stdin
//
// -snapshot loads the versioned binary snapshot format `tabby -save`
// writes (graph + sink/source registry + analysis metadata; see
// internal/store); the graph is served read-only, so queries return
// exactly what they would have on the freshly built graph.
//
// Example queries:
//
//	MATCH (m:Method {IS_SOURCE: true}) RETURN m.NAME LIMIT 20
//	MATCH (a:Method)-[:CALL]->(b:Method {METHOD_NAME: "exec"}) RETURN a.NAME
//	MATCH (c:Class)-[:HAS]->(m:Method) WHERE c.NAME CONTAINS "HashMap" RETURN m.NAME
//	MATCH (m:Method) RETURN m.IS_SINK, COUNT(*)
//	CALL tabby.findGadgetChains(12)
//	CALL tabby.sinks()
//
// Queries compile to iterator plans over the CSR search index when the
// pattern allows it (variable-length relationships fall back to the
// interpreter). Prefix any query with EXPLAIN to print the chosen plan
// with cardinality estimates instead of running it:
//
//	EXPLAIN MATCH (a:Method)-[:CALL]->(b:Method) WHERE b.IS_SINK = true RETURN a.NAME
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"tabby/internal/cypher"
	"tabby/internal/graphdb"
	"tabby/internal/store"
)

func main() {
	var (
		snapshotPath = flag.String("snapshot", "", "snapshot file written by `tabby -save`")
		query        = flag.String("query", "", "one-shot query; omit for a REPL")
	)
	flag.Parse()
	if err := run(*snapshotPath, *query); err != nil {
		fmt.Fprintln(os.Stderr, "tabby-query:", err)
		os.Exit(1)
	}
}

func run(snapshotPath, query string) error {
	db, err := loadSnapshot(snapshotPath)
	if err != nil {
		return err
	}
	stats := db.Stats()
	fmt.Fprintf(os.Stderr, "loaded %d nodes, %d relationships\n", stats.Nodes, stats.Rels)

	if query != "" {
		return execute(db, query)
	}
	return repl(db)
}

// loadSnapshot opens the versioned binary snapshot at path.
func loadSnapshot(path string) (*graphdb.DB, error) {
	if path == "" {
		return nil, fmt.Errorf("missing -snapshot (write one with `tabby -save cpg.tsnap`)")
	}
	snap, err := store.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if snap.Meta.Name != "" {
		fmt.Fprintf(os.Stderr, "snapshot %q (%s): %d sinks registered\n",
			snap.Meta.Name, snap.Meta.Corpus, snap.Sinks.Len())
	}
	return snap.DB, nil
}

func execute(db *graphdb.DB, query string) error {
	res, err := cypher.RunAny(db, query)
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	return nil
}

func repl(db *graphdb.DB) error {
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Fprintln(os.Stderr, `enter Cypher-lite queries, "quit" to exit`)
	for {
		fmt.Fprint(os.Stderr, "tabby> ")
		if !scanner.Scan() {
			return scanner.Err()
		}
		line := strings.TrimSpace(scanner.Text())
		switch line {
		case "":
			continue
		case "quit", "exit":
			return nil
		}
		if err := execute(db, line); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
	}
}
