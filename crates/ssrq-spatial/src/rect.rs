use crate::Point;
use std::fmt;

/// An axis-aligned rectangle, used as the spatial extent of grid cells and
/// index nodes.
///
/// The branch-and-bound searches of SPA/TSA/AIS rely on
/// [`Rect::min_distance`], the minimum Euclidean distance between a query
/// point and any point inside the rectangle (the `ď(u_q, C)` bound of §5.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from two corner points; the corners are
    /// normalized so `min` is component-wise ≤ `max`.
    pub fn new(a: Point, b: Point) -> Self {
        Rect {
            min: a.min(b),
            max: a.max(b),
        }
    }

    /// Creates the unit square `[0, 1] × [0, 1]`, the normalized spatial
    /// domain used throughout the SSRQ experiments.
    pub fn unit() -> Self {
        Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0))
    }

    /// Smallest rectangle enclosing all `points`; `None` for an empty input.
    pub fn bounding(points: impl IntoIterator<Item = Point>) -> Option<Self> {
        let mut iter = points.into_iter();
        let first = iter.next()?;
        let mut min = first;
        let mut max = first;
        for p in iter {
            min = min.min(p);
            max = max.max(p);
        }
        Some(Rect { min, max })
    }

    /// Width of the rectangle.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height of the rectangle.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Center point of the rectangle.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(
            (self.min.x + self.max.x) / 2.0,
            (self.min.y + self.max.y) / 2.0,
        )
    }

    /// Returns `true` when `p` lies inside the rectangle (boundary
    /// inclusive).
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Returns `true` when the two rectangles overlap (boundary inclusive).
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
    }

    /// The common part of the two rectangles (boundary inclusive); `None`
    /// when they do not [intersect](Rect::intersects).
    #[inline]
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        self.intersects(other).then(|| Rect {
            min: self.min.max(other.min),
            max: self.max.min(other.max),
        })
    }

    /// Minimum Euclidean distance from `p` to any point of the rectangle.
    ///
    /// Zero when `p` lies inside; otherwise the distance to the closest
    /// point on the boundary (corner or edge projection), exactly as the
    /// `ď(u_q, C)` lower bound of the paper.
    #[inline]
    pub fn min_distance(&self, p: Point) -> f64 {
        self.min_distance_sq(p).sqrt()
    }

    /// Squared version of [`Rect::min_distance`].
    #[inline]
    pub fn min_distance_sq(&self, p: Point) -> f64 {
        let dx = if p.x < self.min.x {
            self.min.x - p.x
        } else if p.x > self.max.x {
            p.x - self.max.x
        } else {
            0.0
        };
        let dy = if p.y < self.min.y {
            self.min.y - p.y
        } else if p.y > self.max.y {
            p.y - self.max.y
        } else {
            0.0
        };
        dx * dx + dy * dy
    }

    /// Smallest rectangle enclosing both `self` and `other`.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Smallest rectangle enclosing `self` and the point `p`.
    ///
    /// Used to maintain the conservative bounding rectangle of a shard's
    /// resident locations: inclusions only ever grow the rectangle, so it
    /// stays a valid *lower-bound region* (every resident lies inside it)
    /// even when removals would allow it to shrink.
    #[inline]
    pub fn including(&self, p: Point) -> Rect {
        Rect {
            min: self.min.min(p),
            max: self.max.max(p),
        }
    }

    /// Expands the rectangle by `margin` on every side.
    pub fn expanded(&self, margin: f64) -> Rect {
        Rect {
            min: Point::new(self.min.x - margin, self.min.y - margin),
            max: Point::new(self.max.x + margin, self.max.y + margin),
        }
    }

    /// Length of the diagonal — the maximum pairwise distance inside the
    /// rectangle, used to normalize spatial distances.
    pub fn diagonal(&self) -> f64 {
        self.min.distance(self.max)
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} – {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    #[test]
    fn corners_are_normalized() {
        let r = Rect::new(Point::new(5.0, 1.0), Point::new(2.0, 4.0));
        assert_eq!(r.min, Point::new(2.0, 1.0));
        assert_eq!(r.max, Point::new(5.0, 4.0));
    }

    #[test]
    fn bounding_box_of_points() {
        let pts = vec![
            Point::new(1.0, 2.0),
            Point::new(-3.0, 5.0),
            Point::new(0.0, -1.0),
        ];
        let r = Rect::bounding(pts).unwrap();
        assert_eq!(r.min, Point::new(-3.0, -1.0));
        assert_eq!(r.max, Point::new(1.0, 5.0));
        assert!(Rect::bounding(Vec::new()).is_none());
    }

    #[test]
    fn contains_boundary_and_interior() {
        let r = rect(0.0, 0.0, 2.0, 2.0);
        assert!(r.contains(Point::new(1.0, 1.0)));
        assert!(r.contains(Point::new(0.0, 2.0)));
        assert!(!r.contains(Point::new(2.1, 1.0)));
    }

    #[test]
    fn min_distance_inside_is_zero() {
        let r = rect(0.0, 0.0, 2.0, 2.0);
        assert_eq!(r.min_distance(Point::new(1.0, 1.5)), 0.0);
    }

    #[test]
    fn min_distance_edge_projection() {
        // Point directly left of the rectangle: distance is the horizontal
        // projection, as in Figure 4(a) of the paper.
        let r = rect(2.0, 0.0, 4.0, 2.0);
        assert_eq!(r.min_distance(Point::new(0.0, 1.0)), 2.0);
    }

    #[test]
    fn min_distance_corner() {
        let r = rect(3.0, 4.0, 5.0, 6.0);
        // Closest point is the corner (3, 4); origin distance is 5.
        assert_eq!(r.min_distance(Point::ORIGIN), 5.0);
    }

    #[test]
    fn min_distance_never_exceeds_point_distances() {
        let r = rect(1.0, 1.0, 2.0, 3.0);
        let q = Point::new(-1.0, 0.0);
        // distance to every corner must be >= min_distance
        for c in [r.min, r.max, Point::new(1.0, 3.0), Point::new(2.0, 1.0)] {
            assert!(r.min_distance(q) <= q.distance(c) + 1e-12);
        }
    }

    #[test]
    fn intersects_cases() {
        let a = rect(0.0, 0.0, 2.0, 2.0);
        let b = rect(1.0, 1.0, 3.0, 3.0);
        let c = rect(2.5, 2.5, 4.0, 4.0);
        assert!(a.intersects(&b));
        assert!(b.intersects(&c));
        assert!(!a.intersects(&c));
        assert_eq!(a.intersection(&b), Some(rect(1.0, 1.0, 2.0, 2.0)));
        assert_eq!(a.intersection(&c), None);
        // Touching rectangles share their boundary.
        let d = rect(2.0, 0.0, 3.0, 1.0);
        assert_eq!(a.intersection(&d), Some(rect(2.0, 0.0, 2.0, 1.0)));
    }

    #[test]
    fn geometry_accessors() {
        let r = rect(0.0, 0.0, 2.0, 4.0);
        assert_eq!(r.width(), 2.0);
        assert_eq!(r.height(), 4.0);
        assert_eq!(r.center(), Point::new(1.0, 2.0));
        assert!((r.diagonal() - 20.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn union_and_including_cover_both_inputs() {
        let a = rect(0.0, 0.0, 1.0, 1.0);
        let b = rect(2.0, -1.0, 3.0, 0.5);
        let u = a.union(&b);
        assert_eq!(u.min, Point::new(0.0, -1.0));
        assert_eq!(u.max, Point::new(3.0, 1.0));
        // Union with a contained rectangle is the identity.
        assert_eq!(u.union(&a), u);
        let grown = a.including(Point::new(-1.0, 2.0));
        assert!(grown.contains(Point::new(-1.0, 2.0)));
        assert!(grown.contains(Point::new(1.0, 1.0)));
        // Including an interior point changes nothing.
        assert_eq!(a.including(Point::new(0.5, 0.5)), a);
    }

    #[test]
    fn expanded_grows_every_side() {
        let r = rect(1.0, 1.0, 2.0, 2.0).expanded(0.5);
        assert_eq!(r.min, Point::new(0.5, 0.5));
        assert_eq!(r.max, Point::new(2.5, 2.5));
    }

    #[test]
    fn unit_rect() {
        let u = Rect::unit();
        assert_eq!((u.width(), u.height()), (1.0, 1.0));
        assert!(u.contains(Point::new(0.5, 0.5)));
    }
}
