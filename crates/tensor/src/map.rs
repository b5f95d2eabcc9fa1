//! Dense 2D feature maps.

use crate::ShapeError;
use core::fmt;
use core::ops::{Index, IndexMut};

/// A dense, row-major 2D feature map of neurons/pixels.
///
/// Coordinates follow the paper's `(x, y)` convention where `x` indexes the
/// column (row direction of travel) and `y` the row; `width` is the paper's
/// `Nx`, `height` is `Ny`. Storage is row-major: element `(x, y)` lives at
/// `y * width + x`, matching how NB banks hold Px-wide row segments
/// (Fig. 11).
///
/// # Examples
///
/// ```
/// use shidiannao_tensor::FeatureMap;
/// let mut m = FeatureMap::filled(3, 2, 0u8);
/// m[(2, 1)] = 7;
/// assert_eq!(m.row(1), &[0, 0, 7]);
/// ```
#[derive(PartialEq, Eq, Hash)]
pub struct FeatureMap<T> {
    width: usize,
    height: usize,
    data: Vec<T>,
}

impl<T: Clone> Clone for FeatureMap<T> {
    fn clone(&self) -> FeatureMap<T> {
        FeatureMap {
            width: self.width,
            height: self.height,
            data: self.data.clone(),
        }
    }

    /// Capacity-reusing clone: when `self`'s storage already holds enough
    /// capacity, no allocation happens — the steady-state requirement of
    /// the zero-allocation session datapath.
    fn clone_from(&mut self, source: &FeatureMap<T>) {
        self.width = source.width;
        self.height = source.height;
        self.data.clone_from(&source.data);
    }
}

impl<T> FeatureMap<T> {
    /// Creates a map of the given dimensions with every element initialised
    /// to `value`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn filled(width: usize, height: usize, value: T) -> FeatureMap<T>
    where
        T: Clone,
    {
        assert!(width > 0 && height > 0, "feature map must be non-empty");
        FeatureMap {
            width,
            height,
            data: vec![value; width * height],
        }
    }

    /// Creates a map whose element at `(x, y)` is `f(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn from_fn(
        width: usize,
        height: usize,
        mut f: impl FnMut(usize, usize) -> T,
    ) -> FeatureMap<T> {
        assert!(width > 0 && height > 0, "feature map must be non-empty");
        let mut data = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        FeatureMap {
            width,
            height,
            data,
        }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `data.len() != width * height` or a
    /// dimension is zero.
    pub fn from_vec(
        width: usize,
        height: usize,
        data: Vec<T>,
    ) -> Result<FeatureMap<T>, ShapeError> {
        if width == 0 || height == 0 {
            return Err(ShapeError::new("feature map must be non-empty"));
        }
        if width.checked_mul(height) != Some(data.len()) {
            return Err(ShapeError::new(format!(
                "buffer of {} elements cannot form a {width}x{height} map",
                data.len()
            )));
        }
        Ok(FeatureMap {
            width,
            height,
            data,
        })
    }

    /// Reshapes the map in place to `width × height` with every element
    /// set to `value`, reusing the existing storage — allocation-free once
    /// the backing vector has grown to its high-water mark.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn refill(&mut self, width: usize, height: usize, value: T)
    where
        T: Clone,
    {
        assert!(width > 0 && height > 0, "feature map must be non-empty");
        self.width = width;
        self.height = height;
        self.data.clear();
        self.data.resize(width * height, value);
    }

    /// Slides the map down its rows: the last `keep` rows move to the
    /// top, and the map grows or shrinks to `height` rows, the ones after
    /// `keep` set to `value`. Storage is reused, as by
    /// [`FeatureMap::refill`].
    ///
    /// # Panics
    ///
    /// Panics if `height` is zero or `keep` exceeds either height.
    pub fn roll_rows(&mut self, keep: usize, height: usize, value: T)
    where
        T: Clone,
    {
        assert!(
            height > 0 && keep <= height && keep <= self.height,
            "cannot keep {keep} of {} rows in {height}",
            self.height
        );
        self.data.drain(..(self.height - keep) * self.width);
        self.data.resize(height * self.width, value);
        self.height = height;
    }

    /// Map width (`Nx`: number of columns).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Map height (`Ny`: number of rows).
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// `(width, height)`.
    #[inline]
    pub fn dims(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Number of neurons in the map.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Elements the backing storage can hold without reallocating —
    /// what a recycling pool consults to match retired maps to new
    /// shapes (see `MapStack::refill_recycling`).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Always `false`: maps are non-empty by construction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Returns the element at `(x, y)`, or `None` if out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> Option<&T> {
        if x < self.width && y < self.height {
            Some(&self.data[y * self.width + x])
        } else {
            None
        }
    }

    /// Mutable access to the element at `(x, y)`, or `None` if out of
    /// bounds.
    #[inline]
    pub fn get_mut(&mut self, x: usize, y: usize) -> Option<&mut T> {
        if x < self.width && y < self.height {
            Some(&mut self.data[y * self.width + x])
        } else {
            None
        }
    }

    /// The `y`-th row as a slice (a bank-width read of the map).
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    #[inline]
    pub fn row(&self, y: usize) -> &[T] {
        assert!(y < self.height, "row {y} out of bounds");
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// The `y`-th row as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    #[inline]
    pub fn row_mut(&mut self, y: usize) -> &mut [T] {
        assert!(y < self.height, "row {y} out of bounds");
        &mut self.data[y * self.width..(y + 1) * self.width]
    }

    /// The raw row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Consumes the map and returns its row-major storage.
    #[inline]
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Iterates over elements in row-major order.
    pub fn iter(&self) -> core::slice::Iter<'_, T> {
        self.data.iter()
    }

    /// Iterates over `((x, y), &value)` in row-major order.
    pub fn indexed_iter(&self) -> impl Iterator<Item = ((usize, usize), &T)> {
        let w = self.width;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, v)| ((i % w, i / w), v))
    }

    /// Produces a new map by applying `f` to every element.
    pub fn map<U>(&self, f: impl FnMut(&T) -> U) -> FeatureMap<U> {
        FeatureMap {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(f).collect(),
        }
    }

    /// Element-wise combination of two same-shaped maps (the NFU's
    /// matrix-addition primitive uses this shape check).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if dimensions differ.
    pub fn zip_with<U, V>(
        &self,
        other: &FeatureMap<U>,
        mut f: impl FnMut(&T, &U) -> V,
    ) -> Result<FeatureMap<V>, ShapeError> {
        if self.dims() != other.dims() {
            return Err(ShapeError::new(format!(
                "cannot combine {}x{} with {}x{}",
                self.width, self.height, other.width, other.height
            )));
        }
        Ok(FeatureMap {
            width: self.width,
            height: self.height,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| f(a, b))
                .collect(),
        })
    }
}

impl<T: fmt::Debug> fmt::Debug for FeatureMap<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "FeatureMap {}x{} [", self.width, self.height)?;
        for y in 0..self.height {
            writeln!(f, "  {:?}", self.row(y))?;
        }
        write!(f, "]")
    }
}

impl<T> Index<(usize, usize)> for FeatureMap<T> {
    type Output = T;
    /// Indexes by `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    fn index(&self, (x, y): (usize, usize)) -> &T {
        assert!(x < self.width && y < self.height, "({x},{y}) out of bounds");
        &self.data[y * self.width + x]
    }
}

impl<T> IndexMut<(usize, usize)> for FeatureMap<T> {
    #[inline]
    fn index_mut(&mut self, (x, y): (usize, usize)) -> &mut T {
        assert!(x < self.width && y < self.height, "({x},{y}) out of bounds");
        &mut self.data[y * self.width + x]
    }
}

impl<'a, T> IntoIterator for &'a FeatureMap<T> {
    type Item = &'a T;
    type IntoIter = core::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_layout_is_row_major() {
        let m = FeatureMap::from_fn(3, 2, |x, y| 10 * y + x);
        assert_eq!(m.as_slice(), &[0, 1, 2, 10, 11, 12]);
        assert_eq!(m[(1, 1)], 11);
        assert_eq!(m.row(0), &[0, 1, 2]);
    }

    #[test]
    fn get_bounds_checks() {
        let m = FeatureMap::filled(2, 2, 5u8);
        assert_eq!(m.get(1, 1), Some(&5));
        assert_eq!(m.get(2, 0), None);
        assert_eq!(m.get(0, 2), None);
    }

    #[test]
    fn get_mut_writes() {
        let mut m = FeatureMap::filled(2, 2, 0u8);
        *m.get_mut(0, 1).unwrap() = 9;
        assert_eq!(m[(0, 1)], 9);
        assert!(m.get_mut(5, 5).is_none());
    }

    #[test]
    fn from_vec_validates() {
        assert!(FeatureMap::from_vec(2, 2, vec![1, 2, 3, 4]).is_ok());
        assert!(FeatureMap::from_vec(2, 2, vec![1, 2, 3]).is_err());
        assert!(FeatureMap::from_vec(0, 2, Vec::<i32>::new()).is_err());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_dims_panic() {
        let _ = FeatureMap::filled(0, 3, 1u8);
    }

    #[test]
    fn indexed_iter_yields_coordinates() {
        let m = FeatureMap::from_fn(2, 2, |x, y| (x, y));
        for ((x, y), v) in m.indexed_iter() {
            assert_eq!(*v, (x, y));
        }
        assert_eq!(m.indexed_iter().count(), 4);
    }

    #[test]
    fn map_preserves_shape() {
        let m = FeatureMap::from_fn(3, 2, |x, _| x as i32);
        let doubled = m.map(|v| v * 2);
        assert_eq!(doubled.dims(), (3, 2));
        assert_eq!(doubled[(2, 0)], 4);
    }

    #[test]
    fn zip_with_checks_shape() {
        let a = FeatureMap::filled(2, 2, 1i32);
        let b = FeatureMap::filled(2, 2, 2i32);
        let c = a.zip_with(&b, |x, y| x + y).unwrap();
        assert_eq!(c.as_slice(), &[3, 3, 3, 3]);
        let d = FeatureMap::filled(3, 2, 0i32);
        assert!(a.zip_with(&d, |x, y| x + y).is_err());
    }

    #[test]
    fn roll_rows_keeps_the_last_rows_on_top() {
        let mut m = FeatureMap::from_fn(2, 4, |x, y| 10 * y + x);
        m.roll_rows(1, 3, 0);
        assert_eq!(m.dims(), (2, 3));
        assert_eq!(m.as_slice(), &[30, 31, 0, 0, 0, 0]);
        m.roll_rows(2, 2, 9);
        assert_eq!(m.as_slice(), &[0, 0, 0, 0]);
        m.roll_rows(0, 1, 9);
        assert_eq!(m.as_slice(), &[9, 9]);
    }

    #[test]
    #[should_panic(expected = "cannot keep")]
    fn roll_rows_cannot_keep_more_than_it_holds() {
        FeatureMap::filled(2, 2, 0u8).roll_rows(3, 3, 0);
    }

    #[test]
    fn into_vec_roundtrip() {
        let m = FeatureMap::from_fn(2, 3, |x, y| x + y);
        let v = m.clone().into_vec();
        assert_eq!(FeatureMap::from_vec(2, 3, v).unwrap(), m);
    }

    #[test]
    fn debug_is_never_empty() {
        let m = FeatureMap::filled(1, 1, 0u8);
        assert!(format!("{m:?}").contains("FeatureMap 1x1"));
    }

    #[test]
    fn refill_reshapes_in_place() {
        let mut m = FeatureMap::filled(4, 4, 7u8);
        m.refill(2, 3, 1u8);
        assert_eq!(m.dims(), (2, 3));
        assert!(m.iter().all(|&v| v == 1));
    }

    #[test]
    fn clone_from_matches_clone() {
        let src = FeatureMap::from_fn(3, 2, |x, y| x + 10 * y);
        let mut dst = FeatureMap::filled(5, 5, 0usize);
        dst.clone_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn len_and_is_empty() {
        let m = FeatureMap::filled(4, 3, 0u8);
        assert_eq!(m.len(), 12);
        assert!(!m.is_empty());
        assert_eq!(m.iter().count(), 12);
        assert_eq!((&m).into_iter().count(), 12);
    }
}
