// Package document implements the two interactive document models MITS
// authors courseware with (§4.3): the hypermedia document model of
// Fig 4.3 (static interaction — pages, words, choices and a navigation
// graph) and the interactive multimedia document model of Fig 4.4
// (dynamic interaction — sections, scenes, a time-line structure and a
// behavior structure).
//
// Documents are author-level artifacts: they reference media objects by
// string name and know nothing of MHEG. The courseware package compiles
// them into MHEG object graphs.
package document

import (
	"fmt"
)

// ItemKind classifies the items on a hypermedia page.
type ItemKind int

// Page item kinds.
const (
	ItemMedia  ItemKind = iota // a media object shown on the page
	ItemWord                   // a hot word: the source of a link
	ItemChoice                 // an explicit choice button
)

func (k ItemKind) String() string {
	switch k {
	case ItemMedia:
		return "media"
	case ItemWord:
		return "word"
	case ItemChoice:
		return "choice"
	default:
		return fmt.Sprintf("ItemKind(%d)", int(k))
	}
}

// Region is a layout rectangle in generic units (the layout structure
// of §4.3.2).
type Region struct {
	X, Y, W, H int
}

// PageItem is one element of a page's logical structure: a media
// object, a hot word, or a choice button.
type PageItem struct {
	ID    string
	Kind  ItemKind
	Media string // media object reference for ItemMedia
	Text  string // display text for words and choices
	At    Region // layout placement
}

// Page is one node of the hypermedia document's logical structure: "a
// document is composed of a number of pages, and each page may contain
// many media objects" (§4.3.2).
type Page struct {
	ID    string
	Title string
	Items []PageItem
}

// Item finds a page item by id.
func (p *Page) Item(id string) (PageItem, bool) {
	for _, it := range p.Items {
		if it.ID == id {
			return it, true
		}
	}
	return PageItem{}, false
}

// NavLink is one edge of the navigation structure: when Condition (a
// word or choice item on the From page) is activated, presentation
// moves to the To page (Fig 4.3b).
type NavLink struct {
	From      string // page id
	Condition string // item id on the From page
	To        string // page id
}

// HyperDoc is a complete hypermedia document: logical structure
// (pages), layout structure (the regions on items), and navigation
// structure (links).
type HyperDoc struct {
	Title string
	Start string // id of the first page presented
	Pages []*Page
	Links []NavLink
}

// Page finds a page by id.
func (d *HyperDoc) Page(id string) (*Page, bool) {
	for _, p := range d.Pages {
		if p.ID == id {
			return p, true
		}
	}
	return nil, false
}

// Choices lists the outgoing links of a page.
func (d *HyperDoc) Choices(page string) []NavLink {
	var out []NavLink
	for _, l := range d.Links {
		if l.From == page {
			out = append(out, l)
		}
	}
	return out
}

func (d *HyperDoc) mustPage(id string) *Page {
	p, _ := d.Page(id)
	return p
}

// Validate checks structural integrity: unique page and item ids, a
// valid start page, links that reference existing pages and items, and
// full reachability of every page from the start (unreachable pages are
// the authoring bug behind "getting lost" complaints, §4.3.1).
func (d *HyperDoc) Validate() error {
	if d.Title == "" {
		return fmt.Errorf("document: hypermedia document has no title")
	}
	if len(d.Pages) == 0 {
		return fmt.Errorf("document %q: no pages", d.Title)
	}
	pages := make(map[string]*Page, len(d.Pages))
	for _, p := range d.Pages {
		if p.ID == "" {
			return fmt.Errorf("document %q: page with empty id", d.Title)
		}
		if _, dup := pages[p.ID]; dup {
			return fmt.Errorf("document %q: duplicate page id %q", d.Title, p.ID)
		}
		pages[p.ID] = p
		seen := make(map[string]bool, len(p.Items))
		for _, it := range p.Items {
			if it.ID == "" {
				return fmt.Errorf("document %q page %q: item with empty id", d.Title, p.ID)
			}
			if seen[it.ID] {
				return fmt.Errorf("document %q page %q: duplicate item id %q", d.Title, p.ID, it.ID)
			}
			seen[it.ID] = true
			if it.Kind == ItemMedia && it.Media == "" {
				return fmt.Errorf("document %q page %q: media item %q has no media reference", d.Title, p.ID, it.ID)
			}
			if it.Kind != ItemMedia && it.Text == "" {
				return fmt.Errorf("document %q page %q: %v item %q has no text", d.Title, p.ID, it.Kind, it.ID)
			}
		}
	}
	start := d.Start
	if start == "" {
		start = d.Pages[0].ID
	}
	if _, ok := pages[start]; !ok {
		return fmt.Errorf("document %q: start page %q does not exist", d.Title, start)
	}
	for _, l := range d.Links {
		from, ok := pages[l.From]
		if !ok {
			return fmt.Errorf("document %q: link from unknown page %q", d.Title, l.From)
		}
		if _, ok := pages[l.To]; !ok {
			return fmt.Errorf("document %q: link to unknown page %q", d.Title, l.To)
		}
		it, ok := from.Item(l.Condition)
		if !ok {
			return fmt.Errorf("document %q: link condition %q not on page %q", d.Title, l.Condition, l.From)
		}
		if it.Kind == ItemMedia {
			return fmt.Errorf("document %q: link condition %q on page %q is plain media, not a word or choice", d.Title, l.Condition, l.From)
		}
	}
	// Reachability from the start page.
	reached := map[string]bool{start: true}
	frontier := []string{start}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		for _, l := range d.Links {
			if l.From == cur && !reached[l.To] {
				reached[l.To] = true
				frontier = append(frontier, l.To)
			}
		}
	}
	for id := range pages {
		if !reached[id] {
			return fmt.Errorf("document %q: page %q unreachable from start %q", d.Title, id, start)
		}
	}
	return nil
}

// StartPage returns the entry page.
func (d *HyperDoc) StartPage() *Page {
	if d.Start != "" {
		return d.mustPage(d.Start)
	}
	if len(d.Pages) > 0 {
		return d.Pages[0]
	}
	return nil
}
