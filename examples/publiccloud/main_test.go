package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
)

// Example pins the output. It runs the example twice at once in this
// process: outputs that differ mean package-level mutable state.
func Example() {
	var outs [2]bytes.Buffer
	var errs [2]error
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = run(&outs[i])
		}()
	}
	wg.Wait()
	if err := errors.Join(errs[:]...); err != nil {
		fmt.Println(err)
	}
	os.Stdout.Write(outs[0].Bytes())
	if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		fmt.Printf("the second run differs:\n%s", outs[1].Bytes())
	}
	// Output:
	// tenant A running: dom9, dom10 (shards locked to tag "tenantA")
	// tenant B placement refused as expected: true
	// 1GB served at 114.4 MB/s across 1 NetBack microreboots (140ms avg downtime)
	// forensics: guests exposed to dom7 during the incident window: [dom9 dom10]
	// containment summary for a compromise originating in dom9 :
	//   contained            7 CVEs
	//   limited-to-sharers   11 CVEs
	//   whole-host           1 CVEs
	//   mitigated            2 CVEs
	//   not-applicable       2 CVEs
}
