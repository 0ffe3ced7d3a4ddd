// Quickstart: meter one job on the simulated machine and compare the
// three accounting schemes' views of the same execution.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// Run the Whetstone benchmark at 2% of paper scale (~3 virtual
	// seconds) on a clean machine: no attacks, honest provider.
	out, err := cpumeter.Meter(cpumeter.JobSpec{
		Workload: "W",
		Options:  cpumeter.Options{Scale: 0.02},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Metered %q: elapsed %.2f virtual seconds, output %q\n\n",
		out.Spec.Workload, out.ElapsedSec, out.Result.Output)

	fmt.Println("scheme          user(s)  system(s)  total(s)")
	for _, scheme := range cpumeter.Schemes {
		fmt.Printf("%-14s %8.3f  %9.3f  %8.3f\n",
			scheme, out.Victim.User[scheme], out.Victim.Sys[scheme], out.Victim.Total(scheme))
	}

	fmt.Println("\nWith no attack in progress, the commodity jiffy scheme and the")
	fmt.Println("TSC ground truth agree to within a tick — the paper's attacks are")
	fmt.Println("what drives them apart (see examples/attack-gallery).")
}
