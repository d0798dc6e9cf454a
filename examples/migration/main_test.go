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
	// guest dom9 on source host, 50000 pages touched
	// migrated in 3 pre-copy rounds: 53763 pages moved, total 1.91s, blackout 31ms
	// guest is now dom9 on the destination host
	// post-migration I/O through the destination's shards: 94.9 MB/s
	// source audit: destroy records = 2; destination audit: link records = 2
}
