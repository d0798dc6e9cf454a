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
	// platform up in 45.1s of virtual time
	// guest quickstart running as dom9
	// fetched 512MB at 95.2 MB/s
	// console says: ["quickstart: download complete"]
	// audit log: 75 records, verify=-1 (-1 means intact)
}
