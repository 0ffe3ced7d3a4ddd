package proc

import (
	"testing"
	"testing/quick"
)

func TestTablePIDsMonotonic(t *testing.T) {
	tbl := NewTable()
	a := tbl.Create("init", nil)
	b := tbl.Create("shell", a)
	c := tbl.Create("job", b)
	if a.PID != 1 || b.PID != 2 || c.PID != 3 {
		t.Fatalf("pids = %d,%d,%d want 1,2,3", a.PID, b.PID, c.PID)
	}
	if got, _ := tbl.Get(2); got != b {
		t.Fatal("Get(2) != shell")
	}
	if tbl.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tbl.Len())
	}
}

func TestParentChildLinkage(t *testing.T) {
	tbl := NewTable()
	parent := tbl.Create("parent", nil)
	child := tbl.Create("child", parent)
	if child.Parent != parent {
		t.Fatal("child parent not set")
	}
	if len(parent.Children) != 1 || parent.Children[0] != child {
		t.Fatal("parent children not updated")
	}
}

// TestRemoveChildInPlace pins RemoveChild's in-place removal: the other
// children keep their order, the array keeps its capacity, and the
// vacated slot is nil, so a fork storm's parent appends without
// growing the array.
func TestRemoveChildInPlace(t *testing.T) {
	tbl := NewTable()
	parent := tbl.Create("parent", nil)
	a, b, c := tbl.Create("a", parent), tbl.Create("b", parent), tbl.Create("c", parent)
	before := cap(parent.Children)
	parent.RemoveChild(b)
	if len(parent.Children) != 2 || parent.Children[0] != a || parent.Children[1] != c {
		t.Fatalf("children after removing b = %v, want [a c]", parent.Children)
	}
	if cap(parent.Children) != before {
		t.Fatalf("capacity %d after the removal, want %d", cap(parent.Children), before)
	}
	if slot := parent.Children[:3][2]; slot != nil {
		t.Fatalf("the vacated slot holds %v, want nil", slot)
	}
	parent.RemoveChild(b) // not a child any more: a no-op
	if len(parent.Children) != 2 {
		t.Fatal("removing a non-child changed the list")
	}
	tbl.Create("d", parent)
	if cap(parent.Children) != before {
		t.Fatal("appending after the removal grew the array")
	}
}

// TestReuseResetsPCB registers a removed task's PCB again and checks
// that it comes back as a new task that keeps only its (emptied)
// Children array and its SchedData record.
func TestReuseResetsPCB(t *testing.T) {
	tbl := NewTable()
	parent := tbl.Create("parent", nil)
	old := tbl.Create("old", parent)
	old.Setenv("K", "v")
	old.SetNice(7)
	old.SchedData = "record"
	tbl.Create("grandchild", old)
	old.Children = old.Children[:0]
	old.State, old.ExitCode = Reaped, 3
	parent.RemoveChild(old)
	tbl.Remove(old.PID)
	p := tbl.Reuse(old, "new", parent)
	if p != old {
		t.Fatal("Reuse did not register the PCB it was given")
	}
	if p.PID != 4 || p.TGID != 4 || p.Name != "new" || p.State != Embryo || p.ExitCode != 0 ||
		p.Nice() != 0 || p.Env != nil || len(p.Children) != 0 || p.Parent != parent || p.SchedData != "record" {
		t.Fatalf("reused PCB = %+v, want a fresh task 4 under parent that keeps its SchedData", p)
	}
	if got, _ := tbl.Get(4); got != p {
		t.Fatal("the reused PCB is not registered under its new PID")
	}
}

func TestEnvInheritanceIsCopied(t *testing.T) {
	tbl := NewTable()
	parent := tbl.Create("shell", nil)
	parent.Setenv("LD_PRELOAD", "/tmp/evil.so")
	child := tbl.Create("job", parent)
	if child.Env["LD_PRELOAD"] != "/tmp/evil.so" {
		t.Fatal("env not inherited")
	}
	child.Setenv("LD_PRELOAD", "other")
	if parent.Env["LD_PRELOAD"] != "/tmp/evil.so" {
		t.Fatal("child env mutation leaked to parent")
	}
}

func TestNiceClamping(t *testing.T) {
	p := New(1, "p", nil)
	p.SetNice(-100)
	if p.Nice() != MinNice {
		t.Fatalf("nice = %d, want %d", p.Nice(), MinNice)
	}
	p.SetNice(100)
	if p.Nice() != MaxNice {
		t.Fatalf("nice = %d, want %d", p.Nice(), MaxNice)
	}
	p.SetNice(-5)
	if p.Nice() != -5 {
		t.Fatalf("nice = %d, want -5", p.Nice())
	}
}

func TestDebugRegsMatch(t *testing.T) {
	d := DebugRegs{DR0: 0x1000, DR7: 1}
	if !d.Matches(0x1000, false) || !d.Matches(0x1000, true) {
		t.Fatal("any-access watchpoint missed")
	}
	if d.Matches(0x2000, false) {
		t.Fatal("matched wrong address")
	}
	d.OnWrite = true
	if d.Matches(0x1000, false) {
		t.Fatal("write-only watchpoint fired on read")
	}
	if !d.Matches(0x1000, true) {
		t.Fatal("write-only watchpoint missed write")
	}
	d.DR7 = 0
	if d.Matches(0x1000, true) {
		t.Fatal("disabled watchpoint fired")
	}
}

func TestStateAndLifecyclePredicates(t *testing.T) {
	p := New(1, "p", nil)
	if p.State != Embryo || p.Runnable() || !p.Alive() {
		t.Fatal("embryo predicates wrong")
	}
	p.State = Ready
	if !p.Runnable() {
		t.Fatal("ready not runnable")
	}
	p.State = Zombie
	if p.Alive() {
		t.Fatal("zombie reported alive")
	}
}

func TestThreadIdentity(t *testing.T) {
	tbl := NewTable()
	leader := tbl.Create("brute", nil)
	th := tbl.Create("brute-worker", leader)
	th.TGID = leader.PID
	if leader.IsThread() {
		t.Fatal("leader reported as thread")
	}
	if !th.IsThread() {
		t.Fatal("worker not reported as thread")
	}
}

func TestTableRemove(t *testing.T) {
	tbl := NewTable()
	a := tbl.Create("a", nil)
	b := tbl.Create("b", nil)
	tbl.Remove(a.PID)
	if _, ok := tbl.Get(a.PID); ok {
		t.Fatal("removed task still present")
	}
	all := tbl.All()
	if len(all) != 1 || all[0] != b {
		t.Fatalf("All after remove = %v", all)
	}
	tbl.Remove(999) // no-op
}

func TestStateStrings(t *testing.T) {
	states := map[State]string{
		Embryo: "embryo", Ready: "ready", Running: "running",
		Blocked: "blocked", Stopped: "stopped", Zombie: "zombie",
		Reaped: "reaped", State(0): "invalid",
	}
	for s, want := range states {
		if got := s.String(); got != want {
			t.Errorf("State(%d) = %q want %q", int(s), got, want)
		}
	}
}

func TestPIDUniquenessProperty(t *testing.T) {
	f := func(n uint8) bool {
		tbl := NewTable()
		seen := map[PID]bool{}
		for i := 0; i < int(n); i++ {
			p := tbl.Create("p", nil)
			if seen[p.PID] {
				return false
			}
			seen[p.PID] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
