package main

import (
	"fmt"
	"math/rand"
	"strings"

	"tabby/internal/corpus"
	"tabby/internal/javasrc"
)

// The benchmark corpus is the modeled runtime (RT) plus every Table IX
// component: 27 archives, 736 files, about 657 KB of mini-Java.

// componentArchives returns the archives of all 26 components, in
// manifest order.
func componentArchives() []javasrc.ArchiveSource {
	var out []javasrc.ArchiveSource
	for _, c := range corpus.Components() {
		out = append(out, c.Archives...)
	}
	return out
}

// shuffledCorpus returns RT plus the components with the archive order
// and the file order inside every archive permuted by rng. The analysis
// must not depend on either order.
func shuffledCorpus(rng *rand.Rand) []javasrc.ArchiveSource {
	all := append([]javasrc.ArchiveSource{corpus.RT()}, componentArchives()...)
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	for i := range all {
		files := append([]javasrc.File(nil), all[i].Files...)
		rng.Shuffle(len(files), func(a, b int) { files[a], files[b] = files[b], files[a] })
		all[i].Files = files
	}
	return all
}

func corpusSize(archives []javasrc.ArchiveSource) (files, bytes int) {
	for _, a := range archives {
		for _, f := range a.Files {
			files++
			bytes += len(f.Source)
		}
	}
	return files, bytes
}

// editSite is a place where a dead local can be inserted: the first
// line of a method body in one file of the upload.
type editSite struct {
	File int // index into the flat upload file list
	At   int // byte offset just past the method header's "{\n"
}

// methodHeader reports whether line opens a method body: it ends in
// ") {", is no control statement, and names a return type before the
// method name (so constructors, whose first statement may have to be a
// super call, are skipped).
func methodHeader(line string) bool {
	t := strings.TrimSpace(line)
	if !strings.HasSuffix(t, ") {") || strings.Contains(t, "=") {
		return false
	}
	open := strings.IndexByte(t, '(')
	if open < 0 {
		return false
	}
	words := strings.Fields(t[:open])
	if len(words) < 2 {
		return false
	}
	switch words[0] {
	case "if", "while", "for", "switch", "catch", "else", "try", "do", "synchronized", "return", "new":
		return false
	}
	mods := map[string]bool{"public": true, "private": true, "protected": true, "static": true, "final": true, "abstract": true, "synchronized": true}
	n := 0
	for _, w := range words {
		if !mods[w] {
			n++
		}
	}
	return n >= 2
}

// editSites lists every method-body start of the given files.
func editSites(files []javasrc.File) []editSite {
	var out []editSite
	for fi, f := range files {
		off := 0
		for _, line := range strings.SplitAfter(f.Source, "\n") {
			off += len(line)
			if strings.HasSuffix(line, "\n") && methodHeader(line) {
				out = append(out, editSite{File: fi, At: off})
			}
		}
	}
	return out
}

// applyEdit returns files with "String __b<n> = null;" inserted at site:
// the MutateOneClass edit, a dead local that leaves every chain as it
// was. Only the touched file is copied.
func applyEdit(files []javasrc.File, site editSite, n int) []javasrc.File {
	out := append([]javasrc.File(nil), files...)
	f := out[site.File]
	f.Source = f.Source[:site.At] + fmt.Sprintf("        String __b%d = null;\n", n) + f.Source[site.At:]
	out[site.File] = f
	return out
}

// editPlan picks, from the seed, the sequence of edit sites the
// edit-loop uploads cycle through, and checks that every edited corpus
// still compiles (one shared compile cache keeps that cheap: only the
// edited file is compiled again).
func editPlan(rng *rand.Rand, files []javasrc.File, n int) ([]editSite, error) {
	sites := editSites(files)
	if len(sites) == 0 {
		return nil, fmt.Errorf("no edit sites in the upload")
	}
	rng.Shuffle(len(sites), func(i, j int) { sites[i], sites[j] = sites[j], sites[i] })
	if n > len(sites) {
		n = len(sites)
	}
	plan := sites[:n]
	cache := javasrc.NewCache()
	for i, s := range plan {
		archives := []javasrc.ArchiveSource{corpus.RT(), {Name: "edit-check.jar", Files: applyEdit(files, s, i)}}
		if _, _, err := javasrc.CompileArchivesCached(archives, javasrc.CompileOptions{Workers: workers}, cache); err != nil {
			return nil, fmt.Errorf("edit %d in %s does not compile: %w", i, files[s.File].Name, err)
		}
	}
	return plan, nil
}

// uploadFiles flattens the components into the single archive the
// edit-loop uploads (the server prepends RT itself).
func uploadFiles() []javasrc.File {
	var out []javasrc.File
	for _, a := range componentArchives() {
		out = append(out, a.Files...)
	}
	return out
}
