// Command approxnoc-apps runs the application kernels through the cache
// substrate and reports output error and channel statistics — the §5.4
// application-level evaluation as a standalone tool.
//
// Usage:
//
//	approxnoc-apps -app ssca2 -scheme DI-VAXX -threshold 10
//	approxnoc-apps -app all -scheme FP-VAXX -threshold 20
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"approxnoc/internal/apps"
	"approxnoc/internal/compress"
)

func main() {
	appName := flag.String("app", "all", "benchmark kernel name, or 'all'")
	schemeName := flag.String("scheme", "DI-VAXX", "channel compression scheme")
	threshold := flag.Int("threshold", 10, "VAXX error threshold (%)")
	flag.Parse()

	if err := runApps(*appName, *schemeName, *threshold, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "approxnoc-apps:", err)
		os.Exit(1)
	}
}

// runApps runs every selected kernel, then writes the result table to w.
func runApps(appName, schemeName string, threshold int, w io.Writer) error {
	scheme, err := compress.ParseScheme(schemeName)
	if err != nil {
		return err
	}
	list := apps.All()
	if appName != "all" {
		a, err := apps.ByName(appName)
		if err != nil {
			return err
		}
		list = []apps.App{a}
	}
	results := make([]apps.Result, len(list))
	for i, a := range list {
		if results[i], err = a.Run(scheme, threshold); err != nil {
			return fmt.Errorf("%s: %w", a.Name(), err)
		}
	}

	fmt.Fprintf(w, "Application output error under %s at %d%% threshold\n", scheme, threshold)
	fmt.Fprintf(w, "%-14s %12s %10s %10s %12s %10s\n",
		"benchmark", "output error", "quality", "misses", "transfers", "approx")
	for _, res := range results {
		fmt.Fprintf(w, "%-14s %12.4f %10.4f %10d %12d %9.1f%%\n",
			res.Name, res.OutputError, res.DataQuality,
			res.CacheStats.Misses, res.CacheStats.Transfers,
			100*res.Channel.ApproxWordFraction())
	}
	return nil
}
