// TeleSchool day: several students use the school at once — classroom,
// library, bulletin board, discussion room, help on demand and the
// usage-based bill — the seamless environment of §5.2.1, with the SIDL
// phone-queue comparison of §1.3.1.
package main

import (
	"fmt"
	"log"
	"time"

	"mits"
	"mits/internal/facilitator"
	"mits/internal/school"
	"mits/internal/sim"
)

func main() {
	sys := mits.NewSystem("MIRL TeleSchool")
	atmDoc, err := mits.SampleATMCourse()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sys.PublishInteractive(atmDoc, mits.CourseInfo{
		Code: "ELG5121", Name: "ATM Technology", Program: "Engineering",
		DocName: "atm-course", Sessions: 4, Keywords: []string{"network/atm"},
	}); err != nil {
		log.Fatal(err)
	}
	hyperDoc, err := mits.SampleHyperCourse()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sys.PublishHypermedia(hyperDoc, mits.CourseInfo{
		Code: "ELG5374", Name: "Networking Basics", Program: "Engineering",
		DocName: "net-course", Sessions: 2, Keywords: []string{"network/basics"}, Encoding: "sgml",
	}); err != nil {
		log.Fatal(err)
	}
	if err := sys.StockLibrary(); err != nil {
		log.Fatal(err)
	}

	// Three students enroll.
	names := []string{"Ada", "Ben", "Chen"}
	navs := make(map[string]*studentSession)
	for _, name := range names {
		nav := sys.NewNavigator()
		num, err := nav.Register(school.Profile{Name: name})
		if err != nil {
			log.Fatal(err)
		}
		navs[name] = &studentSession{name: name, num: num, nav: nav}
		fmt.Printf("%s registered as %s\n", name, num)
	}

	// Ada takes the ATM course and bookmarks the cell diagram.
	ada := navs["Ada"]
	ada.nav.Enroll("ELG5121")
	ada.nav.StartCourse("ELG5121")
	ada.nav.Clock().RunFor(9 * time.Second)
	ada.nav.Click("Show cell diagram")
	ada.nav.Bookmark("cell diagram")
	ada.nav.ExitCourse()
	scene, _ := ada.nav.CurrentScene()
	fmt.Printf("\nAda studied until scene %q, bookmarked the diagram and left\n", scene)

	// Ben browses the hypermedia course and follows the glossary word.
	ben := navs["Ben"]
	ben.nav.Enroll("ELG5374")
	ben.nav.StartCourse("ELG5374")
	ben.nav.Click("protocol") // the hot word
	page, _ := ben.nav.CurrentScene()
	fmt.Printf("Ben followed the hot word into page %q\n", page)

	// Chen searches the library.
	chen := navs["Chen"]
	docs, err := chen.nav.SearchLibrary("multimedia")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Chen's library search for 'multimedia': %v\n", docs)

	// The bulletin board announces the exam; everyone reads it.
	fac := sys.Facilitator
	fac.Publish("announcements", "admin", "Midterm next week", "Scenes 1-3 are examinable.")
	posts, _ := fac.Read("announcements", 0)
	fmt.Printf("\nbulletin board: %q — %s\n", posts[0].Subject, posts[0].Body)

	// A discussion room forms around ATM cells.
	fac.OpenRoom("atm-cells")
	for _, s := range navs {
		fac.Join("atm-cells", s.num)
	}
	fac.Join("atm-cells", "prof")
	fac.Say("atm-cells", navs["Ada"].num, "Why 48-byte payloads?")
	fac.Say("atm-cells", "prof", "A compromise: 32 (voice) vs 64 (data), averaged.")
	msgs, _ := fac.Messages("atm-cells", 0)
	fmt.Println("\ndiscussion room #atm-cells:")
	for _, m := range msgs {
		fmt.Printf("  <%s> %s\n", m.Author, m.Text)
	}

	// Help on demand: 20 questions hit the help desk at once. With
	// SIDL's 3 phone lines the queue is painful; with the MITS
	// facilitator pool nobody waits long (§1.3.1).
	fmt.Println("\nhelp on demand, 20 simultaneous questions (2-minute answers):")
	for _, cfg := range []struct {
		name        string
		consultants int
	}{
		{"SIDL phone queue (3 lines)", 3},
		{"MITS facilitator pool (10)", 10},
	} {
		clock := sim.NewClock()
		desk, err := facilitator.NewHelpDesk(clock, cfg.consultants, func() time.Duration { return 2 * time.Minute })
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			desk.Ask(&facilitator.Ticket{Student: fmt.Sprintf("s%d", i)})
		}
		clock.Run()
		fmt.Printf("  %-28s mean wait %-6v max wait %v\n", cfg.name,
			time.Duration(desk.Wait.Mean()), time.Duration(desk.Wait.Max()))
	}

	// Ada returns: the course resumes where she left it.
	if err := ada.nav.StartCourse("ELG5121"); err != nil {
		log.Fatal(err)
	}
	scene, _ = ada.nav.CurrentScene()
	fmt.Printf("\nAda re-entered: resumed in scene %q\n", scene)

	stats := sys.School.Stats()
	fmt.Printf("\nschool statistics: %d students, %d courses, enrollments %v\n",
		stats.Students, stats.Courses, stats.Enrollments)

	// Course-On-Demand billing (§5.2.1): enrollment fee plus a charge
	// per on-demand session.
	sys.School.SetFee("ELG5121", school.Fee{EnrollCents: 5000, SessionCents: 750})
	if err := sys.School.RecordPayment(ada.num, 5000); err != nil {
		log.Fatal(err)
	}
	inv, err := sys.School.Invoice(ada.num)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nAda's invoice:\n")
	for _, c := range inv.Charges {
		fmt.Printf("  %-10s %-28s $%6.2f\n", c.Course, c.Description, float64(c.AmountCents)/100)
	}
	fmt.Printf("  %-39s $%6.2f\n", "total", float64(inv.TotalCents)/100)
	fmt.Printf("  %-39s $%6.2f\n", "paid", float64(inv.PaidCents)/100)
	fmt.Printf("  %-39s $%6.2f\n", "balance", float64(inv.BalanceCents)/100)
	billed, paid := sys.School.Revenue()
	fmt.Printf("\nschool revenue: $%.2f billed, $%.2f collected\n", float64(billed)/100, float64(paid)/100)
}

type studentSession struct {
	name string
	num  string
	nav  interface {
		Enroll(string) error
		StartCourse(string) error
		CurrentScene() (string, time.Duration)
		Click(string) error
		Bookmark(string) error
		ExitCourse() error
		SearchLibrary(string) ([]string, error)
		Clock() *sim.Clock
	}
}
