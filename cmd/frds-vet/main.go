// Command frds-vet runs the FREERIDE-specific static analyzers over a
// source tree and prints findings vet-style (file:line:col: analyzer: msg),
// exiting non-zero when any finding survives.
//
//	frds-vet [-analyzers kernelpure,obscount,lockorder,inspectorhoist,rowalias] [dir...]
//
// With no directories it analyzes the current directory tree. The analyzers
// (see internal/vet) check:
//
//	kernelpure     — reduction kernels must not write captured state, read
//	                 time.Now/rand, or spawn goroutines
//	obscount       — obs counters registered once at package scope, not in loops
//	lockorder      — no user callback invoked while a mutex is held
//	inspectorhoist — inspector plans / index tables built at translate time,
//	                 never inside per-split reduction bodies
//	rowalias       — kernels must not retain or mutate borrowed row views
//	                 (args.Data / args.Row alias zero-copy sources)
//
// Suppress a finding in place with `//frds:vet-ignore <analyzer> -- reason`
// on the flagged line or the line above.
//
// frds-vet is a standalone driver rather than a `go vet -vettool` plugin:
// the vettool protocol requires golang.org/x/tools/go/analysis, a
// dependency this module does not take (see DESIGN.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"chapelfreeride/internal/vet"
)

// Exit statuses. CI distinguishes "the repo is dirty" (findings, fix the
// code) from "the analyzer run itself broke" (bad flags, unknown analyzer,
// unparsable source — fix the invocation or the tree).
const (
	exitClean    = 0
	exitFindings = 1
	exitBroken   = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the vet driver and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("frds-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	analyzersFlag := fs.String("analyzers", "", "comma-separated analyzer list (default: all)")
	list := fs.Bool("list", false, "list available analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return exitBroken
	}

	if *list {
		for _, a := range vet.Analyzers() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return exitClean
	}

	analyzers, err := vet.ByName(*analyzersFlag)
	if err != nil {
		fmt.Fprintln(stderr, "frds-vet:", err)
		return exitBroken
	}

	roots := fs.Args()
	if len(roots) == 0 {
		roots = []string{"."}
	}
	var findings []vet.Finding
	for _, root := range roots {
		pkgs, err := vet.Load(root)
		if err != nil {
			fmt.Fprintln(stderr, "frds-vet:", err)
			return exitBroken
		}
		findings = append(findings, vet.Check(pkgs, analyzers)...)
	}
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "frds-vet: %d finding(s)\n", len(findings))
		return exitFindings
	}
	return exitClean
}
