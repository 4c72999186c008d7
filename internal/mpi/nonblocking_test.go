package mpi

import "testing"

func TestIsendIrecvDeliverPayload(t *testing.T) {
	w := testWorld(t, 2)
	w.Run(func(p *Proc) {
		switch p.Rank() {
		case 0:
			req := p.Isend(5, 3, 32, []uint64{9, 9, 9, 9}, 1)
			req.Wait()
		case 5:
			var m Msg
			req := p.Irecv(0, 3, &m)
			req.Wait()
			if m.Src != 0 || m.Bytes != 32 || m.Payload.Any.([]uint64)[0] != 9 {
				t.Errorf("Msg = %+v", m)
			}
		}
	})
}

func TestNonblockingOverlapsComputation(t *testing.T) {
	// A rank that computes while a large transfer is in flight must
	// finish sooner than one that transfers first and computes after.
	const bytes = 64 << 20 // a slow inter-node transfer
	const work = 5e6       // 5 ms of computation

	run := func(overlap bool) float64 {
		w := testWorld(t, 2)
		w.Run(func(p *Proc) {
			switch p.Rank() {
			case 0:
				if overlap {
					req := p.Isend(4, 1, bytes, nil, 1)
					p.Compute(work)
					req.Wait()
				} else {
					p.Send(4, 1, bytes, nil, 1)
					p.Compute(work)
				}
			case 4:
				var m Msg
				req := p.Irecv(0, 1, &m)
				if overlap {
					p.Compute(work)
				}
				req.Wait()
				if !overlap {
					p.Compute(work)
				}
			}
		})
		return w.MaxClock()
	}

	seq := run(false)
	ov := run(true)
	if ov >= seq {
		t.Fatalf("overlapped run (%g) not faster than sequential (%g)", ov, seq)
	}
	// With transfer >> work the overlapped time approaches the transfer
	// time alone.
	if ov > seq-0.9*work {
		t.Fatalf("overlap hid only %g of %g ns of work", seq-ov, work)
	}
}

func TestWaitTwicePanics(t *testing.T) {
	w := testWorld(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.Run(func(p *Proc) {
		switch p.Rank() {
		case 0:
			req := p.Isend(1, 1, 8, nil, 1)
			req.Wait()
			req.Wait()
		case 1:
			p.Recv(0, 1)
		}
	})
}

func TestWaitAllOrders(t *testing.T) {
	w := testWorld(t, 1)
	w.Run(func(p *Proc) {
		switch p.Rank() {
		case 0:
			r1 := p.Isend(1, 1, 1024, nil, 1)
			r2 := p.Isend(1, 2, 1024, nil, 1)
			r1.Wait()
			r2.Wait()
		case 1:
			var a, b Msg
			r1 := p.Irecv(0, 1, &a)
			r2 := p.Irecv(0, 2, &b)
			r1.Wait()
			r2.Wait()
			if a.Tag != 1 || b.Tag != 2 {
				t.Errorf("tags: %d, %d", a.Tag, b.Tag)
			}
		}
	})
}
