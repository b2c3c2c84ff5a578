// Command gmqlfsck scans a repository of GDM datasets, verifies every file of
// a member against its manifest, and repairs what can be repaired without
// guessing: orphan staging directories are removed, torn directory swaps
// rolled back, corrupt files restored from checksum-matching quarantine
// copies. With -rebuild it additionally converts text directories (exports,
// and text members written by older genogo versions) into members in place
// and reconstructs manifests around surviving files, quarantining anything
// unparseable.
//
// Usage:
//
//	gmqlfsck -data DIR [-rebuild] [-json] [-v]
//
// A single dataset directory (one holding a schema.txt or manifest.json)
// may be given instead of a repository root.
//
// Exit codes: 0 — every dataset verified clean (repairs may have been
// applied); 1 — unrepairable damage remains; 2 — usage or I/O error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"genogo/internal/formats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("gmqlfsck", flag.ContinueOnError)
	fs.SetOutput(errOut)
	dataDir := fs.String("data", "", "repository root or single dataset directory (required)")
	rebuild := fs.Bool("rebuild", false, "reconstruct manifests: quarantine corrupt files, drop missing ones, convert text directories into members")
	asJSON := fs.Bool("json", false, "emit results as JSON on stdout")
	verbose := fs.Bool("v", false, "list clean datasets too, not only damaged or repaired ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dataDir == "" || fs.NArg() != 0 {
		fmt.Fprintln(errOut, "usage: gmqlfsck -data DIR [-rebuild] [-json] [-v]")
		return 2
	}

	opts := formats.FsckOptions{Rebuild: *rebuild}
	var (
		results []*formats.FsckResult
		err     error
	)
	if isSingleDataset(*dataDir) {
		var res *formats.FsckResult
		res, err = formats.FsckDataset(*dataDir, opts)
		if res != nil {
			results = []*formats.FsckResult{res}
		}
	} else {
		results, err = formats.FsckRepo(*dataDir, opts)
	}
	if err != nil {
		fmt.Fprintf(errOut, "gmqlfsck: %v\n", err)
		return 2
	}

	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(errOut, "gmqlfsck: %v\n", err)
			return 2
		}
		return exitCode(results)
	}

	clean, repaired, damaged, unverified := 0, 0, 0, 0
	for _, r := range results {
		switch {
		case !r.Clean():
			damaged++
		case len(r.Repaired) > 0:
			repaired++
		default:
			clean++
		}
		if r.Unverified {
			unverified++
		}
		if !*verbose && r.Clean() && len(r.Repaired) == 0 && !r.Unverified {
			continue
		}
		status := "ok"
		if !r.Clean() {
			status = "DAMAGED"
		} else if len(r.Repaired) > 0 {
			status = "repaired"
		}
		if r.Unverified {
			status += " (unverified: no manifest; run -rebuild to convert)"
		}
		fmt.Fprintf(out, "%s: %s", r.Dir, status)
		if r.Samples > 0 || r.Digest != "" {
			fmt.Fprintf(out, "  samples=%d digest=%.12s", r.Samples, r.Digest)
		}
		fmt.Fprintln(out)
		for _, a := range r.Repaired {
			fmt.Fprintf(out, "  repaired %-20s %s", a.Action, a.Path)
			if a.Detail != "" {
				fmt.Fprintf(out, " (%s)", a.Detail)
			}
			fmt.Fprintln(out)
		}
		for _, p := range r.Problems {
			fmt.Fprintf(out, "  PROBLEM  %-20s %s", p.Reason, p.Path)
			if p.Detail != "" {
				fmt.Fprintf(out, " (%s)", p.Detail)
			}
			fmt.Fprintln(out)
		}
	}
	fmt.Fprintf(out, "gmqlfsck: %d dataset(s): %d clean, %d repaired, %d damaged, %d unverified\n",
		len(results), clean, repaired, damaged, unverified)
	return exitCode(results)
}

// isSingleDataset reports whether dir itself is one dataset directory rather
// than a repository root holding several.
func isSingleDataset(dir string) bool {
	for _, marker := range []string{formats.ManifestName, "schema.txt"} {
		if _, err := os.Stat(dir + string(os.PathSeparator) + marker); err == nil {
			return true
		}
	}
	return false
}

func exitCode(results []*formats.FsckResult) int {
	for _, r := range results {
		if !r.Clean() {
			return 1
		}
	}
	return 0
}
