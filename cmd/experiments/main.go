// Command experiments prints the paper's tables from the experiment catalog
// (internal/experiments): the entries named on the command line, in that
// order, or every entry when none is named. Every entry runs at fixed
// parameters, so the output is deterministic; the root tests pin each
// entry's text under testdata/experiments/.
//
//	experiments            # every entry
//	experiments E2 F-B     # the named entries
//
// Exit status is 2 for an unknown ID (the message lists the valid ones)
// and 1 if an entry fails to render.
package main

import (
	"fmt"
	"os"
	"strings"

	"treeaa/internal/experiments"
)

func main() {
	catalog := experiments.Catalog()
	byID := make(map[string]experiments.Experiment, len(catalog))
	ids := make([]string, len(catalog))
	for i, e := range catalog {
		byID[e.ID] = e
		ids[i] = e.ID
	}
	picked := catalog
	if args := os.Args[1:]; len(args) > 0 {
		picked = nil
		for _, id := range args {
			e, ok := byID[id]
			if !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q; valid IDs: %s\n", id, strings.Join(ids, " "))
				os.Exit(2)
			}
			picked = append(picked, e)
		}
	}
	for i, e := range picked {
		if i > 0 {
			fmt.Println()
		}
		if err := e.Render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
