// Command netbench is the OSU-style bandwidth microbenchmark of the
// paper's Fig. 4, run on the simulated interconnect: k rank pairs stream
// messages between two nodes concurrently, for a sweep of message sizes
// and process counts.
//
// Usage:
//
//	netbench
//	netbench -ppn 1,2,4,8 -sizes 4096,65536,1048576
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"numabfs/internal/machine"
	"numabfs/internal/mpi"
)

func main() {
	ppnFlag := flag.String("ppn", "1,2,4,8", "comma-separated processes per node")
	sizesFlag := flag.String("sizes", "4096,65536,1048576,4194304,16777216,67108864",
		"comma-separated message sizes in bytes")
	iters := flag.Int("iters", 8, "messages per pair")
	latency := flag.Bool("latency", false, "report per-message one-way latency (us) instead of bandwidth")
	flag.Parse()

	ppns, err := parseInts(*ppnFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "netbench: -ppn: %v\n", err)
		os.Exit(2)
	}
	sizes, err := parseInts(*sizesFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "netbench: -sizes: %v\n", err)
		os.Exit(2)
	}

	cfg := machine.TableI()
	cfg.Nodes = 2
	cfg.WeakNode = -1
	pl := machine.PlacementFor(cfg, machine.PPN8Bind)

	if *latency {
		fmt.Printf("node-to-node one-way latency (us), %d iters per pair\n", *iters)
	} else {
		fmt.Printf("node-to-node bandwidth (GB/s), %d iters per pair, 2x %0.f Gb/s ports per node\n",
			*iters, cfg.IBPortBW*8)
	}
	fmt.Printf("%-10s", "size")
	for _, p := range ppns {
		fmt.Printf("%12s", fmt.Sprintf("ppn=%d", p))
	}
	fmt.Println()

	for _, size := range sizes {
		fmt.Printf("%-10s", byteLabel(int64(size)))
		for _, ppn := range ppns {
			if ppn > cfg.SocketsPerNode {
				fmt.Printf("%12s", "-")
				continue
			}
			w := mpi.NewWorld(cfg, pl)
			buf := make([]uint64, size/8+1)
			w.Run(func(p *mpi.Proc) {
				if p.LocalRank() >= ppn {
					return
				}
				peer := p.Rank() + cfg.SocketsPerNode
				for it := 0; it < *iters; it++ {
					if p.Node() == 0 {
						p.SendPayload(peer, 100+it, int64(size), mpi.Payload{Words: buf}, ppn)
					} else {
						p.Recv(p.Rank()-cfg.SocketsPerNode, 100+it)
					}
				}
			})
			if *latency {
				fmt.Printf("%12.3f", w.MaxClock()/float64(*iters)/1e3)
			} else {
				total := float64(size) * float64(*iters) * float64(ppn)
				fmt.Printf("%12.2f", total/w.MaxClock())
			}
		}
		fmt.Println()
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		if v <= 0 {
			return nil, fmt.Errorf("value %d must be positive", v)
		}
		out = append(out, v)
	}
	return out, nil
}

func byteLabel(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dMB", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dKB", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}
